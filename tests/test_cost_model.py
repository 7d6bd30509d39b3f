"""Cost-model unit tests: FLOP estimates, Eq. (4) operator costs,
execution-type decisions, and conditional constraints (paper §4.1/§4.3)."""
import pytest

from repro.core import hop as H
from repro.core.cost import (
    CostModel,
    OpSpec,
    flops,
    flops_dense,
    is_distributed,
    op_cost,
    violates_constraints,
)
from repro.core.explore import explore
from repro.core.select import POLICIES, select_plans


def _basic_spec(h):
    inputs = [i for i in h.inputs if i.op != "lit"]
    return OpSpec(
        root=h, template=None, covered={h.hid: h}, entries={},
        input_hops={i.hid: i for i in inputs},
    )


def test_flops_matmult():
    a, b = H.var("A", 100, 50), H.var("B", 50, 20)
    assert flops_dense(H.matmult(a.hop, b.hop)) == 2 * 100 * 50 * 20


def test_flops_expensive_unaries_weighted():
    x = H.var("X", 10, 10)
    assert flops(H.exp(x).hop) > flops((x * 2.0).hop)


def test_paper_read_time_example():
    """§4.3: reading a 100M×10 dense input at 32 GB/s -> 0.25 s."""
    cm = CostModel()
    X = H.var("X", 100_000_000, 10)
    assert X.hop.memory_bytes() / cm.read_bw == pytest.approx(0.25)


def test_op_cost_overlaps_read_and_compute():
    cm = CostModel()
    X, Y = H.var("X", 10**6, 10), H.var("Y", 10**6, 10)
    spec = _basic_spec((X * Y).hop)
    c = op_cost(spec, cm)
    write = spec.root.memory_bytes() / cm.write_bw
    read = (X.hop.memory_bytes() + Y.hop.memory_bytes()) / cm.read_bw
    comp = flops(spec.root) / cm.peak_flops
    assert c == pytest.approx(write + max(read, comp))


def test_sparse_scale_reduces_cost():
    cm = CostModel()
    n, m, r = 10**5, 10**4, 20
    X = H.var("X", n, m, 0.01)
    U, V = H.var("U", n, r), H.var("V", m, r)
    mm = U @ V.T
    w = (X != 0) * mm
    spec = OpSpec(
        root=w.hop, template="O",
        covered={w.hop.hid: w.hop, mm.hop.hid: mm.hop},
        entries={},
        input_hops={X.hop.hid: X.hop, U.hop.hid: U.hop},
        sparse_scale=0.01,
    )
    dense_spec = OpSpec(
        root=w.hop, template="C",
        covered=dict(spec.covered), entries={},
        input_hops=dict(spec.input_hops),
        sparse_scale=1.0,
    )
    assert op_cost(spec, cm) < op_cost(dense_spec, cm) / 10


@pytest.mark.parametrize("policy", POLICIES)
def test_multi_aggregate_costed_at_its_cplans_scale(policy):
    """sum(X*Y) alone could iterate the sparse X's non-zeros, but the
    combined multi-aggregate also sums Y^2, so its CPlan iterates the
    dense Y, and it is costed so."""
    X, Y = H.var("X", 1000, 100, 0.05), H.var("Y", 1000, 100)
    roots = [H.sum_(X * Y).hop, H.sum_(Y**2).hop]
    memo = explore(roots, prune_dominated=policy != "cost")
    (spec,) = select_plans(memo, roots, policy).specs
    assert spec.template == "M" and len(spec.magg_roots) == 1
    assert spec.sparse_scale == 1.0
    assert spec.cplan.main_hid == Y.hop.hid


def test_is_distributed_by_memory_estimate():
    cm = CostModel(local_mem_budget=1e6)
    small = _basic_spec((H.var("a", 100, 10) * 2.0).hop)
    big = _basic_spec((H.var("b", 10**6, 100) * 2.0).hop)
    assert not is_distributed(small, cm)
    assert is_distributed(big, cm)


def test_distributed_cost_adds_latency_and_broadcast():
    cm = CostModel(local_mem_budget=1e6)
    X, v = H.var("X", 10**6, 100), H.var("v", 100, 1)
    spec = _basic_spec((X @ v).hop)
    c_local = op_cost(spec, cm, distributed=False)
    c_dist = op_cost(spec, cm, distributed=True)
    assert c_dist > c_local  # latency + broadcast of v + slower read


def test_row_blocksize_constraint_distributed_only():
    """§4.1: Row templates require ncol(X) <= B_c only when distributed."""
    cm = CostModel()
    wide = H.var("X", 10**6, 5000)  # ncol > blocksize(1024), huge input
    spec = OpSpec(
        root=H.row_sums(wide).hop, template="R",
        covered={}, entries={},
        input_hops={wide.hop.hid: wide.hop},
    )
    spec.covered = {spec.root.hid: spec.root}
    assert violates_constraints(spec, cm)  # 40 GB input -> distributed
    narrow = H.var("Y", 10**6, 100)
    spec2 = OpSpec(
        root=H.row_sums(narrow).hop, template="R",
        covered={}, entries={},
        input_hops={narrow.hop.hid: narrow.hop},
    )
    spec2.covered = {spec2.root.hid: spec2.root}
    assert not violates_constraints(spec2, cm)
