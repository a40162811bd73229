"""The boundary contract of the public API and of the command line.

Every callable in `heegnerlab.__all__`, and every method of `DualVector` and
`DiscriminantGroup` that takes an argument, has one known-good call below.
Each argument of that call is swapped, one at a time, for each value of a
pool of hostile inputs; the call must then return or raise ValueError.  A
TypeError or AttributeError escaping a public function is a leak: the CLI
maps ValueError to exit 2 (usage) and lets anything else surface as a bug.

Some bad values are refused only by a check the pool cannot see, because a
return also satisfies the contract; those have explicit cases.  The CLI
property drives `cli.main` in process over random argv from its grammar.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heegnerlab as H
from heegnerlab import cli
from heegnerlab.intlinalg import hermite_row_basis, kernel_basis
from heegnerlab.lattices import NAMED_LATTICES

A1 = H.build_named_lattice("A1")
A2 = H.build_named_lattice("A2")
E8 = H.build_named_lattice("E8")
GROUP = H.discriminant_group(H.build_named_lattice("rank1", 10))
REP = H.build_weil_rep(GROUP, 2)
CHECKS = H.verify_sl2_relations(REP)
THIRDS = H.DualVector(A2, (Fraction(1, 3), Fraction(2, 3)))
E1 = (1,) + (0,) * 7

POOL = (None, "2", b"2", 2.5, math.nan, math.inf, True, [], [[]], object())

# Records that only the library builds; they are returned, not called.
RECORDS = {
    "AdmissibilityReport",
    "BoundCertificate",
    "CaseResult",
    "DiscriminantGroup",
    "EmbeddingWitness",
    "HKIndexFamily",
    "IntegerLattice",
    "LabellingWitness",
    "RelationCheck",
    "WeilRepresentation",
}

# One known-good call per public callable: name -> (args, kwargs).
GOOD_CALLS = {
    "DualVector": ((A2, (Fraction(1, 3), Fraction(2, 3))), {}),
    "build_named_lattice": (("rank1", 10), {}),
    "direct_sum": ((A2, A1), {}),
    "make_lattice": ((((2, -1), (-1, 2)),), {"name": "A2"}),
    "named_lattice": (("Lambda_d(14)",), {}),
    "orthogonal_complement": ((E8, [E1]), {}),
    "discriminant_group": ((A2,), {"hard_cap": 10**6}),
    "enumerate_by_norm": ((A2, 2), {"coset": THIRDS}),
    "first_primitive_vector": ((E8, 2), {}),
    "build_weil_rep": ((GROUP, 2), {}),
    "relations_pass": ((CHECKS,), {}),
    "verify_sl2_relations": ((REP,), {"tol": 1e-9}),
    "HeegnerIndex": ((), {"n": Fraction(1, 3), "gamma": "gamma1", "lattice_tag": "Lambda_C"}),
    "cubic_heegner_index": ((8,), {}),
    "embed_k3_lattice": ((14,), {}),
    "gm_heegner_index": ((10,), {}),
    "gm_residue_vector": ((10,), {}),
    "hk_heegner_index": ((1, 1, 8), {}),
    "factorize": ((360,), {}),
    "omega": ((30,), {}),
    "sigma_power": ((3, 12), {}),
    "admissibility_report": ((14,), {"n_max": 10}),
    "case_a": ((14,), {}),
    "case_b": ((10,), {}),
    "case_c": ((14, 10), {}),
    "divisor_bound_check": (((1, 100),), {"squarefree_limit": 50}),
    "fm_partner_count": ((8,), {}),
    "growth_exponent_estimate": (([(i, i * i) for i in range(1, 11)],), {}),
    "heegner_irr_exponent": ((22,), {}),
    "kudla_irr_exponent": ((26,), {}),
    "irr_bound_certificate": ((8,), {"n_max": 10}),
    "sandwich_check": ((4, (1, 50)), {}),
}


# One known-good call per method that takes an argument: label -> (method, args).
GOOD_METHOD_CALLS = {
    "GROUP.q": (GROUP.q, ((3,),)),
    "GROUP.b": (GROUP.b, ((3,), (7,))),
    "GROUP.add": (GROUP.add, ((3,), (7,))),
    "GROUP.lift": (GROUP.lift, ((3,),)),
    "GROUP.element_of": (GROUP.element_of, (GROUP.lift((3,)),)),
    "THIRDS.pairing": (THIRDS.pairing, (THIRDS,)),
}

# Every probed call: label -> (callable, args, kwargs).
PROBED = {name: (getattr(H, name), *call) for name, call in GOOD_CALLS.items()}
PROBED |= {label: (method, args, {}) for label, (method, args) in GOOD_METHOD_CALLS.items()}


def test_every_public_name_is_a_probed_call_or_a_record():
    public = set(H.__all__)
    records = {name for name in public if name not in GOOD_CALLS}
    assert records == RECORDS
    assert set(GOOD_CALLS) <= public


@pytest.mark.parametrize("name", sorted(PROBED))
def test_good_call_runs(name):
    fn, args, kwargs = PROBED[name]
    fn(*args, **kwargs)


def _swapped_calls(name):
    _, args, kwargs = PROBED[name]
    for i in range(len(args)):
        for bad in POOL:
            yield f"{name} arg {i} = {bad!r}", (*args[:i], bad, *args[i + 1 :]), kwargs
    for key in kwargs:
        for bad in POOL:
            yield f"{name} {key} = {bad!r}", args, {**kwargs, key: bad}


@pytest.mark.parametrize("name", sorted(PROBED))
def test_hostile_arguments_return_or_raise_value_error(name):
    fn = PROBED[name][0]
    leaks = []
    for label, args, kwargs in _swapped_calls(name):
        try:
            fn(*args, **kwargs)
        except ValueError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other class is the leak being counted
            leaks.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not leaks, "\n".join(leaks)


# Bad values the pool cannot show: a return would satisfy the contract, or
# the value (a sieve limit past any list) is not in the pool.
EXPLICIT_REFUSALS = {
    "sigma_power(2.5, 12)": lambda: H.sigma_power(2.5, 12),
    "sigma_power(True, 12)": lambda: H.sigma_power(True, 12),
    "enumerate_by_norm(A2, True)": lambda: H.enumerate_by_norm(A2, True),
    "first_primitive_vector(E8, True)": lambda: H.first_primitive_vector(E8, True),
    "verify_sl2_relations(REP, tol=True)": lambda: H.verify_sl2_relations(REP, tol=True),
    "sandwich_check(4, (1, 2**63))": lambda: H.sandwich_check(4, (1, 2**63)),
    "sandwich_check(2**63, (1, 10))": lambda: H.sandwich_check(2**63, (1, 10)),
    # `admissible --d 9223372036854775808 --n-max 10**30`: past the case C witness cap
    "admissibility_report(2**63, n_max=10**30)": lambda: H.admissibility_report(2**63, n_max=10**30),
    # ragged rows: an IndexError, or a wrong basis from a row read short
    "kernel_basis([[1, 2], [3]])": lambda: kernel_basis([[1, 2], [3]]),
    "hermite_row_basis([[2], [3, 4]])": lambda: hermite_row_basis([[2], [3, 4]]),
    "kernel_basis([[2], [3, 4]])": lambda: kernel_basis([[2], [3, 4]]),
    # a bool residue or coordinate: a flag passed where an integer is meant
    "GROUP.q((True,))": lambda: GROUP.q((True,)),
    "GROUP.lift((True,))": lambda: GROUP.lift((True,)),
    # an element that is no sequence: a TypeError from its length
    "GROUP.q(5)": lambda: GROUP.q(5),
    "GROUP.q(None)": lambda: GROUP.q(None),
    "GROUP.lift(None)": lambda: GROUP.lift(None),
    # a bytes element iterates as its byte values, which are integers
    'GROUP.q(b"a")': lambda: GROUP.q(b"a"),
    'GROUP.lift(b"\\x01")': lambda: GROUP.lift(b"\x01"),
    # an element_of argument that is no DualVector: an AttributeError from its lattice
    "GROUP.element_of(None)": lambda: GROUP.element_of(None),
    "GROUP.element_of((1,))": lambda: GROUP.element_of((1,)),
    "DualVector(A2, (True, False))": lambda: H.DualVector(A2, (True, False)),
}


@pytest.mark.parametrize("call", sorted(EXPLICIT_REFUSALS))
def test_values_the_pool_cannot_show_are_refused(call):
    with pytest.raises(ValueError):
        EXPLICIT_REFUSALS[call]()


# Integer flag values: small, negative, huge (past every cap) and not numbers.
SMALL = st.integers(-3, 40)
NOT_INT = st.sampled_from(["1.5", "x", "", "1e3", "0x10", "nan"])
HUGE = st.sampled_from([-(10**6), 2**63, 10**30])
INT = st.one_of(SMALL, SMALL, SMALL, HUGE, HUGE, NOT_INT)
# A `--g-range` runs one report per genus, so its ends get no huge value:
# there a huge value is a long sweep, not a usage error (ROADMAP item 13).
WORK = st.one_of(SMALL, SMALL, SMALL, SMALL, NOT_INT)
RANGE = st.one_of(st.builds("{}:{}".format, WORK, WORK), st.sampled_from(["5", "a:b", "9:2", ":"]))
FLOAT = st.sampled_from(["1e-9", "0.5", "0", "-1", "nan", "inf", "1e400", "x"])
NAME = st.sampled_from([*NAMED_LATTICES, "K3", ""])
# A lattice parameter is mostly left out (None): most named lattices take none.
LATTICE = {"--name": NAME, **dict.fromkeys(("--d", "--n", "--delta"), st.none() | INT)}
GRAMMAR = {
    ("lattice", "info"): LATTICE,
    ("weil", "check"): {**LATTICE, "--tol": FLOAT},
    ("heegner", "cubic"): {"--d": INT},
    ("heegner", "gm"): {"--d": INT},
    ("heegner", "hk"): {"--n": INT, "--delta": INT, "--d": INT},
    ("embed",): {"--d": INT},
    ("admissible",): {("--d", "--g", "--g-range"): (INT, INT, RANGE), "--n-max": INT},
    ("bound",): {("--g", "--g-range"): (INT, RANGE), "--n-max": INT},
    ("growth", "sandwich"): {"--k": INT, "--m-max": INT, "--m-min": INT},
    ("growth", "estimate"): {},
}
SERIES = st.sampled_from(["", "[]", "{}", "NaN", "[[1, 2]]", "[[1, \"x\"]]", "[[1e400, 1]]",
                          json.dumps([[n, n**3] for n in range(1, 12)])])
RARELY = st.sampled_from([False] * 7 + [True])


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = list(command)
    for flag, values in GRAMMAR[command].items():
        if isinstance(flag, tuple):  # mutually exclusive selectors: mostly one of them
            picks = draw(st.lists(st.sampled_from(range(len(flag))), min_size=1, max_size=2, unique=True))
            for i in picks[: 1 + draw(RARELY)]:
                argv += [flag[i], str(draw(values[i]))]
        elif not draw(RARELY) and (value := draw(values)) is not None:  # most flags are given
            argv += [flag, str(value)]
    argv += draw(st.sampled_from([[], [], ["--format", "json"], ["--format", "csv"], ["--format", "xml"]]))
    argv += draw(st.sampled_from([[], ["--meta"]]))
    if draw(RARELY) and len(argv) > len(command):
        argv = argv[len(command):] + list(command)  # flags before the subcommand
    cap = draw(st.sampled_from([None, "x", "-5", "0", "7", str(10**12)]))
    return argv, cap, draw(SERIES)


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(invocations())
def test_cli_exits_0_1_or_2_with_strict_json(invocation):
    argv, cap, series = invocation
    out, err = io.StringIO(), io.StringIO()
    saved_cap, saved_stdin = os.environ.pop(cli.ENV_CAP, None), sys.stdin
    if cap is not None:
        os.environ[cli.ENV_CAP] = cap
    try:
        sys.stdin = io.StringIO(series)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refusing the grammar
        code = None
        assert exc.code == 2, (argv, err.getvalue())
    finally:
        sys.stdin = saved_stdin
        os.environ.pop(cli.ENV_CAP, None)
        if saved_cap is not None:
            os.environ[cli.ENV_CAP] = saved_cap
    assert code in (None, 0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0 and "csv" not in argv:
        text = out.getvalue()
        try:
            json.loads(text, parse_constant=_refuse_constant)
        except json.JSONDecodeError:  # a list payload is one document per line
            for line in text.splitlines():
                json.loads(line, parse_constant=_refuse_constant)
