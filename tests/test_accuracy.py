"""Accuracy gate: a deterministic desk-scale training run whose operators
are scored against the reference solver on two held-out designs.

The run is the README's minimal config (8 designs from `small` narrowed to
0.2, default operators and collocation, batch 1024) cut to 24 epochs that
alternate one epoch per phase over two curriculum stages; it takes about
20 s at OMP_NUM_THREADS=1 on a shared 2-core x86 host. The mid-point
part-temperature trace is gated. The degree of cure is printed, not
gated: the cure operator does not learn yet (its rel-L2 stays near 1).

A run's seed initializes the operators and drives its collocation draws.
Tier-1 gates seed 0. Seeds 1 and 2 run the same gate under the
`acceptance` marker, which Tier-1 deselects; run them with
`pytest -m acceptance tests/test_accuracy.py`.
"""

import pytest

from cureonet import DesignSpace, Grid1D, load_material_set, sample
from cureonet.evaluate import midpoint_trace_rel_l2, reference_solutions
from cureonet.operator import OperatorConfig, init_triplet
from cureonet.trainer import TrainPlan, train

SPACE = DesignSpace.named("small").narrowed(0.2)
PLAN = TrainPlan(epochs=24, steps_per_epoch=10, batch_size=1024,
                 phase_epochs_temp=1, phase_epochs_cure=1,
                 curriculum_stages=2)
# measured: 0.0757 and 0.0831 after training, 0.871 and 0.865 untrained;
# seed 1 reads 0.0843 and 0.0933, seed 2 0.0627 and 0.0751
PART_TEMPERATURE_BOUND = 0.10


def _gate(seed):
    props = load_material_set()
    refs = reference_solutions(sample(SPACE, 2, seed=9), props,
                               Grid1D(dt=4.0))
    triplet = init_triplet(OperatorConfig(), SPACE, seed=seed)
    untrained = [midpoint_trace_rel_l2(triplet, ref) for ref in refs]
    train(triplet, sample(SPACE, 8, seed=1), PLAN, props, seed=seed)
    trained = [midpoint_trace_rel_l2(triplet, ref) for ref in refs]
    cure = [midpoint_trace_rel_l2(triplet, ref, field_name="alpha")
            for ref in refs]
    print(f"mid-point rel-L2: part temperature {trained} "
          f"(untrained {untrained}), degree of cure {cure}")
    assert max(trained) <= PART_TEMPERATURE_BOUND
    assert 5.0 * max(trained) <= min(untrained)


def test_desk_scale_run_learns_the_part_temperature():
    _gate(seed=0)


@pytest.mark.acceptance
@pytest.mark.parametrize("seed", [1, 2])
def test_desk_scale_run_learns_the_part_temperature_on_more_seeds(seed):
    _gate(seed)
