"""Unit tests for the BSP cost ledger."""

import numpy as np
import pytest

from repro.parallel import CostLedger, MachineModel


@pytest.fixture
def machine():
    return MachineModel(t_setup=1.0, t_word=0.5, t_work=2.0)


def test_add_work_all_scalar_and_array(machine):
    led = CostLedger(3, machine)
    led.add_work_all(5)
    assert led.clocks.tolist() == [10.0, 10.0, 10.0]
    led.add_work_all([1, 2, 3])
    assert led.clocks.tolist() == [12.0, 14.0, 16.0]


def test_add_work_all_rejects_bad_shape(machine):
    led = CostLedger(3, machine)
    with pytest.raises(ValueError):
        led.add_work_all([1, 2])
    with pytest.raises(ValueError):
        led.add_work_all([-1, 0, 0])


def test_add_message_charges_both_sides(machine):
    led = CostLedger(2, machine)
    led.add_message(0, 1, 10)
    assert led.clocks[0] == pytest.approx(1.0 + 0.5 * 10)
    assert led.clocks[1] == pytest.approx(1.0)
    assert led.total_messages == 1
    assert led.total_words == 10


def test_self_message_is_free(machine):
    led = CostLedger(2, machine)
    led.add_message(1, 1, 1000)
    assert led.elapsed == 0.0
    assert led.total_messages == 0


def test_add_exchange_overlaps_send_and_recv(machine):
    led = CostLedger(2, machine)
    vol = np.array([[5, 8], [4, 9]])  # diagonal must be ignored
    led.add_exchange(vol)
    # rank 0 sends 8 words (1 msg), receives 4 (1 msg)
    assert led.clocks[0] == pytest.approx(max(1 + 8 * 0.5, 1 + 4 * 0.5))
    assert led.clocks[1] == pytest.approx(max(1 + 4 * 0.5, 1 + 8 * 0.5))
    assert led.total_words == 12


def test_exchange_shape_check(machine):
    led = CostLedger(3, machine)
    with pytest.raises(ValueError):
        led.add_exchange(np.zeros((2, 2)))


def test_barrier_synchronises(machine):
    led = CostLedger(4, machine)
    led.add_work_all([0, 1, 2, 3])
    led.barrier()
    # max clock 6.0 plus ceil(log2 4) = 2 startup rounds
    assert led.clocks.tolist() == [8.0, 8.0, 8.0, 8.0]


def test_barrier_single_rank_free(machine):
    led = CostLedger(1, machine)
    led.barrier()
    assert led.elapsed == 0.0
