"""The three workloads: inputs drawn from the seed, the timed program call of
each operation, and the independent check of its output.

Program functions are looked up on their modules at call time, so a traced
run sees the wrapped names.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from operstokes import immersion, isomono, sl2, stokes
from operstokes.isomono import OperPoint

import checks

# exact structure tables: a spread of n up to the n = 12 gate
TABLE_SIZES = (3, 6, 9, 12)
# (n, k) of the exact deformation-kernel certificates
KERNEL_POINTS = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1))


@dataclass
class Op:
    name: str
    run: Callable[[], object]          # the timed call into the program
    check: Callable[[object], list]    # output -> [checks.Check]
    known_fault: bool = False          # fails on every seed, see README


def rational(rng, box):
    """p/q with 4 <= q <= 9 and |p/q| <= box."""
    q = rng.randint(4, 9)
    bound = int(box * q)
    return Fraction(rng.randint(-bound, bound), q)


def complex_coeff(rng, box):
    """Real and imaginary parts uniform in [-box, box], four decimals."""
    return complex(round(rng.uniform(-box, box), 4),
                   round(rng.uniform(-box, box), 4))


def monomial(n, k):
    return OperPoint(n, k, (0,) * (n * k - 1))


def _stokes_op(name, op, known_fault=False):
    return Op(name, lambda: stokes.stokes_data(op),
              lambda sd: checks.check_stokes(checks.stokes_view(op, sd)),
              known_fault)


def stokes_scan(rng):
    """Fresh default-settings runs: scan, escalation, multiprecision."""
    points = [
        ("weber_rational", OperPoint(2, 1, (rational(rng, 1),))),
        ("weber_complex", OperPoint(2, 1, (complex_coeff(rng, 0.5),))),
        ("z4", monomial(2, 2)),
        ("z6", monomial(2, 3)),
        ("z3", monomial(3, 1)),
    ]
    return ([_stokes_op(name, op) for name, op in points]
            + [_stokes_op("z8", monomial(2, 4), known_fault=True)])


def _jacobian_op(name, op, base=None):
    return Op(name, lambda: immersion.jacobian(op),
              lambda rep: checks.check_jacobian(
                  checks.jacobian_view(op, rep, base)))


def jacobian_replay(rng):
    """Differentials: one fresh base run, then frozen-plan stencil replays."""
    weber = OperPoint(2, 1, (complex_coeff(rng, 0.5),))
    quartic = OperPoint(2, 2, tuple(complex_coeff(rng, 0.25)
                                    for _ in range(3)))
    # fixed: the (3,1) plan (97 bits) and with it the cost of eight
    # multiprecision replays would otherwise swing with the seed
    cubic = OperPoint(3, 1, (Fraction(1, 5), Fraction(-1, 7)))
    # the Weber derivative check reads the base values from a run made
    # here, before any timing starts
    base = stokes.stokes_data(weber)
    return [_jacobian_op("weber", weber, base),
            _jacobian_op("quartic", quartic),
            _jacobian_op("cubic", cubic)]


def _tables(n):
    tri = sl2.principal_sl2(n)
    basis = sl2.build_weight_basis(tri)
    tables = sl2.compute_structure_tables(basis)
    return basis, tables, sl2.verify_sign_property(tables)


def _tables_op(n):
    return Op(f"tables_n{n}", lambda: _tables(n),
              lambda out: checks.check_tables(checks.tables_view(*out)))


def _kernel_op(op):
    def check(rep):
        rows = isomono.joint_system(op, rep.D)
        return checks.check_solvability(checks.solvability_view(op, rep, rows))
    return Op(f"kernel_{op.n}_{op.k}", lambda: isomono.solvability(op), check)


def exact_certificates(rng):
    """Rational arithmetic only: sl(2) tables and deformation kernels."""
    ops = [_tables_op(n) for n in TABLE_SIZES]
    for n, k in KERNEL_POINTS:
        op = OperPoint(n, k, tuple(rational(rng, 1) for _ in range(n * k - 1)))
        ops.append(_kernel_op(op))
    return ops


WORKLOADS = {
    "stokes_scan": stokes_scan,
    "jacobian_replay": jacobian_replay,
    "exact_certificates": exact_certificates,
}


def build(workload, seed):
    return WORKLOADS[workload](random.Random(seed))
