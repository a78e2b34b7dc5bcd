"""Differential tests of the compiled closure walk against the Python walk.

The kernel must build the operator of the Python reference walk: equal
arrays (states, violating flags, offsets, successor positions, weight keys
and their base), and so equal columns, and equal B(T).  Without a C
compiler the comparison cannot run and the module skips; with one, a kernel
that fails to build fails the tests.  The golden corpus is compared in
test_oracle_golden.py.
"""

import warnings
from array import array

import pytest

from common import I1, I2, I3, REPEATED, operator_arrays
from satgrowth import dpll, native, oracle
from satgrowth.cnf import Instance, clause, generate_random_instance


def _python_build(inst, heuristic, reference):
    with reference():
        return oracle.build_evolution_operator(inst, heuristic)


def _assert_same(got, want, inst, heuristic):
    assert operator_arrays(got) == operator_arrays(want)
    t_max = inst.n_vars + 1
    assert (oracle.branch_function_sequence(inst, heuristic, t_max, got)
            == oracle.branch_function_sequence(inst, heuristic, t_max, want))


def _assert_matches_python(inst, heuristic, reference):
    _assert_same(oracle.build_evolution_operator(inst, heuristic),
                 _python_build(inst, heuristic, reference), inst, heuristic)


def test_random_instances_match(kernel, reference):
    # 2+p mixes at N = 9..12 under every heuristic, sat and unsat
    pairs = 0
    for n in range(9, 13):
        mixes = ((0.0, 4.5), (1.0, 3.0), (0.0, 8.0)) if n < 11 else ((0.5, 6.0),)
        for j, (a2, a3) in enumerate(mixes):
            inst = generate_random_instance(n, int(round(a2 * n)),
                                            int(round(a3 * n)), 41000 + 10 * n + j)
            for h in dpll.HEURISTICS:
                _assert_matches_python(inst, h, reference)
                pairs += 1
    assert pairs == 24


def test_edge_instances_match(kernel, reference):
    # no clauses, no variables, an empty literal buffer built directly,
    # unit clauses, a tautological pair and repeated variables
    edge = (Instance(3, []), Instance(0, []),
            Instance._from_buffers(2, array("i"), array("i", [0])),
            I1, I2, I3, Instance(2, [clause(1, 2)]), *REPEATED)
    for inst in edge:
        for h in dpll.HEURISTICS:
            _assert_matches_python(inst, h, reference)
    for h in dpll.HEURISTICS:
        op = oracle.build_evolution_operator(Instance(0, []), h)
        assert dict(op.columns) == {0: []} and op.violating == b"\0"


def test_fallback_without_compiler(kernel, fresh_load):
    inst = generate_random_instance(8, 2, 40, 42000)
    compiled = [oracle.build_evolution_operator(inst, h) for h in dpll.HEURISTICS]
    native.load.cache_clear()
    fresh_load.setattr(native, "_compiler", lambda: None)
    walks = []
    python_closure = oracle._python_closure
    fresh_load.setattr(oracle, "_python_closure",
                       lambda *args: walks.append(args) or python_closure(*args))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = [oracle.build_evolution_operator(inst, h)
                    for h in dpll.HEURISTICS]
    assert len(walks) == len(dpll.HEURISTICS)
    for got, want, h in zip(fallback, compiled, dpll.HEURISTICS):
        _assert_same(got, want, inst, h)
    assert len(caught) == 1 and "no C compiler" in str(caught[0].message)


def test_inputs_checked_before_the_kernel(monkeypatch):
    def no_kernel():
        raise AssertionError("a rejected input must not reach the kernel")
    monkeypatch.setattr(native, "load", no_kernel)
    with pytest.raises(ValueError, match="unknown heuristic"):
        oracle.build_evolution_operator(I3, "guc")
    with pytest.raises(ValueError, match="exceeds the operator cap"):
        oracle.build_evolution_operator(Instance(16, [clause(1, 2, 3)]), "GUC")


def test_kernel_memory_error(kernel):
    # 3^40 states overflow the walk's 64-bit indices and its seen array:
    # the kernel refuses the call as out of memory, before it allocates
    big = Instance(40, [clause(1, 2, 3)])
    with pytest.raises(MemoryError, match="oracle kernel out of memory"):
        oracle.build_evolution_operator(big, "GUC", var_cap=40)


def test_closure_frees_on_error():
    class FailingKernel:
        freed = 0

        def sg_closure(self, *args):
            return -1

        def sg_closure_free(self, out):
            self.freed += 1

    lib = FailingKernel()
    with pytest.raises(MemoryError):
        native.closure(lib, I3.n_vars, I3.lits, I3.starts, "GUC")
    assert lib.freed == 1
