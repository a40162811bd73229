"""Seeded inputs, timed operations and output checks for the four workloads.

Input generation uses the standard library alone and never calls heegnerlab,
so the library only ever receives generated inputs.  Each check recomputes
its invariant with the benchmark's own integer arithmetic, so the library is
never its own oracle; a check raises CheckFailed and returns the canonical
payload bytes that the digests are taken over.

A workload yields rounds.  A round is the workload's unit of work at its
stated input size: its wall time is the `wall_s` metric, and every round of
a workload has the same composition, so percentiles pooled over a run do not
depend on how many rounds fitted into it.  No input repeats within a run:
genera and CLI arguments are drawn without replacement, and lattices that
recur from round to round (the Weil ladder, E8) get a fresh seeded basis
change, so no Gram matrix repeats and no cache keyed on one is hit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import time
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SEED = 1
HELD_OUT_SEED = 271828


class CheckFailed(Exception):
    pass


def need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- independent arithmetic ---------------------------------------------------

E8 = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)
U = ((0, 1), (1, 0))
A1 = ((2,),)
A2 = ((2, -1), (-1, 2))


def block_diag(*blocks) -> list[list[int]]:
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def det(mat) -> int:
    """Integer determinant by fraction-free elimination."""
    a = [list(r) for r in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def sigma3(n: int) -> int:
    return sum(k**3 for k in range(1, n + 1) if n % k == 0)


def signed_permutation(gram, rng: random.Random) -> list[list[int]]:
    """Gram matrix of the same lattice in a permuted basis with sign flips."""
    n = len(gram)
    perm = list(range(n))
    rng.shuffle(perm)
    sign = [rng.choice((-1, 1)) for _ in range(n)]
    return [[sign[i] * sign[j] * gram[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\x00")
    return h.hexdigest()


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _strict_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity."""
    return json.loads(text, parse_constant=_strict_constant)


# -- genus_sweep ----------------------------------------------------------------


def _case_a(d: int) -> bool:
    return d % 6 in (0, 2) and d % 4 != 0 and d % 9 != 0 and all(
        p == 2 or p % 3 != 2 for p in prime_factors(d)
    )


def _case_b(d: int) -> bool:
    return d % 8 in (2, 4) and all(p % 4 != 3 for p in prime_factors(d))


def _square_witnesses(d: int, n_max: int = 10) -> list[list[int]]:
    out, m = [], 0
    while d // 2 - m * m >= 1:
        if d // 2 - m * m <= n_max:
            out.append([d // 2 - m * m, m])
        m += 1
    return out


class GenusSweep:
    """irr_bound_certificate(g) and admissibility_report(2g-2) per genus."""

    name = "genus_sweep"
    per_round = 10
    g_lo, g_hi = 13, 100_000  # genera 2..12 are the warm-up inputs
    SHARP = block_diag(E8, E8, E8, U, U)

    def __init__(self):
        self.witnesses: list = []

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        seen: set[int] = set()
        while True:
            batch = []
            while len(batch) < self.per_round:
                g = rng.randint(self.g_lo, self.g_hi)
                if g not in seen:
                    seen.add(g)
                    batch.append({"g": g})
            yield batch

    def warm(self, H) -> None:
        H.irr_bound_certificate(2)
        H.cubic_heegner_index(8)
        H.gm_heegner_index(10)
        for n in range(1, 11):
            H.HeegnerIndex(n=Fraction(0), gamma="all", lattice_tag=f"Lambda_HK_prim({n},1)")

    def prepare(self, H) -> None:
        """Keep the embedding witness irr_bound_certificate computes, so its
        image and complement can be checked; one extra call per operation."""
        bounds = H.bounds
        inner = bounds.embed_k3_lattice

        def keep_witness(d):
            witness = inner(d)
            self.witnesses.append(witness)
            return witness

        bounds.embed_k3_lattice = keep_witness

    def run(self, H, spec, ctx):
        self.witnesses.clear()
        g = spec["g"]
        return H.irr_bound_certificate(g), H.admissibility_report(2 * g - 2), list(self.witnesses)

    def check(self, spec, result) -> bytes:
        cert, report, witnesses = result
        g = spec["g"]
        d = 2 * g - 2
        need(len(witnesses) == 1, f"expected one embedding, saw {len(witnesses)}")
        w = witnesses[0]
        need(w.d == d and w.det_lhs == Fraction(d, 2**7) == w.det_rhs, f"det(T) != d/2^7 for d={d}")
        units = [i for i in range(28) if not 16 <= i < 24]
        image = [list(v) for v in w.image_basis]
        need(len(image) == 21 and w.image_primitive, "image is not a primitive rank-21 sublattice")
        for row, i in zip(image, units):
            need(row == [int(j == i) for j in range(28)], "image basis is not the identity on E8+E8+U+U")
        spare = image[20][16:24]
        need(all(x == 0 for k, x in enumerate(image[20]) if not 16 <= k < 24), "w leaves the spare E8")
        need(math.gcd(*spare) == 1, "w is not primitive")
        need(sum(spare[i] * E8[i][j] * spare[j] for i in range(8) for j in range(8)) == d, "w has the wrong norm")
        comp = [list(v) for v in w.complement_basis]
        need(len(comp) == 7, "complement rank is not 7")
        gc = [[sum(r[k] * c for k, c in enumerate(row) if c) for r in self.SHARP] for row in comp]
        need(all(sum(u[k] * v[k] for k in range(28)) == 0 for u in image for v in gc), "complement not orthogonal to the image")
        induced = [[sum(a[k] * v[k] for k in range(28)) for v in gc] for a in comp]
        need(induced == [list(r) for r in w.complement_gram], "complement Gram mismatch")

        doc = cert.to_jsonable()
        need(doc["g"] == g and doc["d"] == d, "certificate for the wrong genus")
        routes = {r["route"]: r for r in doc["routes"]}
        uniform = routes.get("uniform")
        need(uniform is not None and uniform["det_check_pass"], "uniform route missing or failed")
        need(uniform["det_T"] == str(Fraction(d, 2**7)), "uniform route det(T) wrong")
        need(uniform["multiplier"] == 2 ** len(prime_factors(g - 1)), "uniform multiplier != 2^omega(g-1)")
        need(("A" in routes) == _case_a(d), "route A presence disagrees with case A")
        need(("B" in routes) == _case_b(d), "route B presence disagrees with case B")
        wits = _square_witnesses(d)
        need({k for k in routes if k.startswith("C(")} == {f"C({n})" for n, _ in wits}, "C routes disagree with square witnesses")
        rep = report.to_jsonable()
        need(rep["d"] == d and rep["case_a"]["pass"] == _case_a(d) and rep["case_b"]["pass"] == _case_b(d), "admissibility cases wrong")
        need(rep["case_c_witnesses"] == wits, "case C witnesses wrong")
        return canonical([doc, rep])


# -- weil_atlas -----------------------------------------------------------------


def _hk_prim(n: int, delta: int):
    tail = ((2, 0), (0, 2 * n)) if delta == 1 else ((2, 1), (1, (n + 1) // 2))
    return block_diag(U, U, E8, E8, tail)


class WeilAtlas:
    """discriminant_group -> q_values -> build_weil_rep -> verify_sl2_relations."""

    name = "weil_atlas"
    # (label, Gram): named signature-(m,2) lattices on a ladder of group
    # orders 3..400; the top rungs carry most of a round's time.
    LADDER = (
        [("Lambda_C", block_diag(A2, U, U, E8, E8)), ("Lambda_GM", block_diag(A1, A1, E8, E8, U, U))]
        + [(f"Lambda_HK_prim({n},1)", _hk_prim(n, 1)) for n in (2, 3, 4, 5, 7, 10, 15, 20, 30, 50, 100)]
        + [(f"Lambda_HK_prim({n},2)", _hk_prim(n, 2)) for n in (7, 11, 19, 27, 43, 83, 163)]
    )
    # One random even Gram of rank 2 or 4 per |det| below.  Fixing the group
    # orders keeps a round's cost the same for every seed, and keeping them
    # small keeps every random lattice cheaper than every ladder lattice, so
    # the pooled percentiles always fall on the same ladder rungs.  An even
    # lattice of even rank has |det| = 0, 1 or 3 (mod 4).
    random_dets = (3, 4, 5, 7, 8, 9, 11, 12)
    tol = 1e-9

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            batch = [
                {"label": label, "gram": signed_permutation(gram, rng)} for label, gram in self.LADDER
            ]
            for order in self.random_dets:
                batch.append({"label": "random", "gram": self._random_even(rng, order)})
            yield batch

    def _random_even(self, rng: random.Random, order: int) -> list[list[int]]:
        """Random even Gram with |det| = order, drawn as in the acceptance
        tests; an even rank makes p - q even, so a Weil representation
        exists."""
        rank = rng.choice((2, 4))
        while True:
            m = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                m[i][i] = rng.choice((-6, -4, -2, 2, 4, 6))
                for j in range(i):
                    m[i][j] = m[j][i] = rng.randint(-2, 2)
            if abs(det(m)) == order:
                return m

    def warm(self, H) -> None:
        self.run(H, {"gram": [list(r) for r in block_diag(A2, U, U, E8, E8)]}, {})

    def prepare(self, H) -> None:
        pass

    def run(self, H, spec, ctx):
        lattice = H.make_lattice(spec["gram"])
        p, q = lattice.signature
        m = ((p - q + 2) % 8 or 8) if spec.get("label") == "random" else p
        group = H.discriminant_group(lattice)
        qv = group.q_values
        rep = H.build_weil_rep(group, m)
        return m, group, qv, rep, H.verify_sl2_relations(rep, tol=self.tol)

    def check(self, spec, result) -> bytes:
        m, group, qv, rep, checks = result
        order = abs(det(spec["gram"]))
        divisors = list(group.elementary_divisors)
        need(math.prod(divisors) == order == rep.dim, f"|D| != |det Gram| = {order}")
        need(all(b % a == 0 for a, b in zip(divisors, divisors[1:])), "divisibility chain broken")
        need(len(qv) == order, "q-table is not complete")
        need(all(0 <= v < 1 and (v * rep.level).denominator == 1 for v in qv.values()), "q value outside (1/N)Z mod 1")
        need(qv[(0,) * len(divisors)] == 0, "q(0) != 0")
        need(rep.weight == 1 + m // 2, "wrong weight")
        names = [c.relation for c in checks]
        need(names == ["S^4 = Id", "(S*T)^3 = S^2", f"T^{rep.level} = Id", "S unitary"], f"unexpected relations {names}")
        need(all(c.passed and c.max_deviation <= self.tol for c in checks), "a Weil relation failed")
        return canonical(
            {
                "divisors": divisors,
                "q": sorted([list(k), str(v)] for k, v in qv.items()),
                "level": rep.level,
                "m": m,
                "relations": [[c.relation, c.passed] for c in checks],
            }
        )


# -- shell_enum -----------------------------------------------------------------


class ShellEnum:
    """enumerate_by_norm over E8 shells and over coset shells of definite
    lattices, one shell per sampled discriminant class."""

    name = "shell_enum"
    e8_norms = (2, 4, 6, 8)
    # Each round draws lattices_per_round random definite lattices, rank
    # 2 + (slot mod 5), and enumerates shells_per_lattice coset shells of
    # each, at norm offsets above the class representative's norm that cycle
    # through 0..3.  Spreading the shells over many small lattices,
    # stratified by rank and offset, keeps the distribution of shell costs,
    # and so its pooled percentiles, the same from seed to seed.
    lattices_per_round = 120
    shells_per_lattice = 2
    det_range = (8, 48)

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        # Flipping basis signs mirrors the Fincke-Pohst tree, so every E8
        # input costs the same; a global flip leaves the Gram unchanged, so
        # the first sign is fixed and 128 distinct inputs remain.
        patterns = [(1, *rest) for rest in itertools.product((1, -1), repeat=7)]
        rng.shuffle(patterns)
        for signs in patterns:
            e8 = [[signs[i] * signs[j] * E8[i][j] for j in range(8)] for i in range(8)]
            batch = [{"kind": "e8", "gram": e8, "norm": n} for n in self.e8_norms]
            for slot in range(self.lattices_per_round):
                gram, order = self._random_definite(rng, 2 + slot % 5)
                batch.append({"kind": "lattice", "gram": gram})
                for k, index in enumerate(rng.sample(range(order), self.shells_per_lattice)):
                    extra = (slot * self.shells_per_lattice + k) % 4
                    batch.append({"kind": "coset", "index": index, "extra": extra})
            yield batch
        raise RuntimeError("input space exhausted")

    def _random_definite(self, rng: random.Random, rank: int):
        """Random even positive definite Gram of the given rank with |det| in
        det_range."""
        lo, hi = self.det_range
        while True:
            m = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                m[i][i] = rng.choice((2, 4, 6))
                for j in range(i):
                    m[i][j] = m[j][i] = rng.randint(-1, 1)
            minors = [det([row[:k] for row in m[:k]]) for k in range(1, rank + 1)]
            if all(x > 0 for x in minors) and lo <= minors[-1] <= hi:
                return m, minors[-1]

    def warm(self, H) -> None:
        lattice = H.make_lattice(A2)
        H.enumerate_by_norm(lattice, 2)
        group = H.discriminant_group(lattice)
        H.enumerate_by_norm(lattice, group.lift((1,)).norm(), coset=group.lift((1,)))

    def prepare(self, H) -> None:
        pass

    def run(self, H, spec, ctx):
        kind = spec["kind"]
        if kind == "e8":
            return H.enumerate_by_norm(H.make_lattice(spec["gram"]), spec["norm"])
        if kind == "lattice":
            lattice = H.make_lattice(spec["gram"])
            ctx["lattice"], ctx["group"] = lattice, H.discriminant_group(lattice)
            ctx["elements"] = list(ctx["group"].elements())
            return ctx["group"].order
        lattice, group = ctx["lattice"], ctx["group"]
        lift = group.lift(ctx["elements"][spec["index"]])
        centered = tuple(x - math.floor(x + Fraction(1, 2)) for x in lift.coords)
        coset = H.DualVector(lattice, centered)
        target = coset.norm() + 2 * spec["extra"]
        return H.enumerate_by_norm(lattice, target, coset=coset), lattice.gram, centered, target

    def check(self, spec, result) -> bytes:
        kind = spec["kind"]
        if kind == "lattice":
            need(result == det(spec["gram"]), "|D| != det Gram")
            return str(result).encode()
        if kind == "e8":
            result, gram, shift, target = result, spec["gram"], (0,) * 8, Fraction(spec["norm"])
        else:
            result, gram, shift, target = result
        coords = [v.coords for v in result]
        if kind == "e8":
            n = spec["norm"]
            need(len(coords) == 240 * sigma3(n // 2), f"E8 shell {n} has {len(coords)} vectors")
            need(all(x.denominator == 1 for c in coords for x in c), "non-integral E8 vector")
            den = 1
        else:
            den = math.lcm(*(x.denominator for x in shift))
            need(all((x - s).denominator == 1 for c in coords for x, s in zip(c, shift)), "vector outside the coset")
            if spec["extra"] == 0:
                need(tuple(shift) in {tuple(c) for c in coords}, "coset shell misses its own representative")
        scaled_target = target * den * den
        need(scaled_target.denominator == 1, "target norm outside (1/den^2)Z")
        scaled = np.array([[int(x * den) for x in c] for c in coords], dtype=np.int64).reshape(len(coords), len(gram))
        norms = np.einsum("ij,jk,ik->i", scaled, np.array(gram, dtype=np.int64), scaled)
        need(bool(np.all(norms == int(scaled_target))), "vector with the wrong norm")
        need(all(a < b for a, b in zip(coords, coords[1:])), "shell not in strict lexicographic order")
        return sha(target, *(",".join(map(str, c)) for c in coords)).encode()


# -- cli_batch ------------------------------------------------------------------


class CliBatch:
    """A fixed script of `python -m heegnerlab` invocations with seeded
    arguments; each invocation pays interpreter start and import.

    A round holds eleven invocations, two of them `growth sandwich`, the
    slowest command, whose cost is mostly the divisor-sum sieve.  Every other
    command stays cheaper (`weil check` up to dimension 48), so the pooled
    p90 falls inside the sandwich invocations and follows the sieve.
    """

    name = "cli_batch"

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        seen: set[tuple] = set()

        def fresh(draw) -> list[str]:
            for _ in range(10_000):
                argv = draw()
                if tuple(argv) not in seen:
                    seen.add(tuple(argv))
                    return argv
            raise RuntimeError("input space exhausted")

        def even(lo: int, hi: int, mod: int = 1, residues=(0,)) -> str:
            while True:
                d = 2 * rng.randint(lo // 2, hi // 2)
                if d % mod in residues:
                    return str(d)

        def weil_lattice() -> list[str]:
            # dimension 4n for delta 1 (n <= 12), n for delta 2 (n = 3 mod 4)
            n, delta = rng.choice([*((n, 1) for n in range(1, 13)), *((n, 2) for n in range(3, 48, 4))])
            return ["weil", "check", "--name", "Lambda_HK_prim", "--n", str(n), "--delta", str(delta)]

        def sandwich() -> list[str]:
            return ["growth", "sandwich", "--k", "6", "--m-max", str(rng.randint(95_000, 105_000))]

        while True:
            g0 = rng.randint(2, 5000)
            series = fresh(lambda: ["growth", "estimate", str(rng.randint(2, 9)), str(rng.randint(8, 200))])
            k, length = int(series[2]), int(series[3])
            yield [
                {"argv": fresh(lambda: ["lattice", "info", "--name", "Lambda_d", "--d", even(2, 600)])},
                {"argv": fresh(lambda: ["heegner", "cubic", "--d", even(8, 10**6, 6, (0, 2))])},
                {"argv": fresh(lambda: ["heegner", "gm", "--d", even(8, 10**6, 8, (0, 2, 4))])},
                {"argv": fresh(lambda: ["heegner", "hk", "--n", str(rng.randint(1, 40)), "--delta", "1", "--d", even(2, 10**6)])},
                {"argv": fresh(lambda: ["embed", "--d", even(2, 20000)])},
                {"argv": fresh(lambda: ["bound", "--g", str(rng.randint(13, 10**5))])},
                {"argv": fresh(lambda: ["admissible", "--g-range", f"{g0}:{g0 + 99}", "--format", "csv"])},
                {"argv": fresh(weil_lattice)},
                {"argv": fresh(sandwich)},
                {"argv": fresh(sandwich)},
                {
                    "argv": ["growth", "estimate"],
                    "stdin": json.dumps([[i, i**k] for i in range(1, length + 1)]),
                    "slope": k,
                },
            ]

    def warm(self, H) -> None:
        import contextlib

        with contextlib.redirect_stdout(io.StringIO()):
            H.cli.main(["lattice", "info", "--name", "A2"])

    def prepare(self, H) -> None:
        pass

    def run(self, H, spec, ctx):
        tracer = ctx["tracer"]
        if tracer is None:
            cmd = [ctx["python"], "-m", "heegnerlab", *spec["argv"]]
        else:
            prefix = os.path.join(ctx["scratch"], f"cli-trace-{os.getpid()}")
            cmd = [ctx["python"], os.path.join(HERE, "cli_shim.py"), prefix, *spec["argv"]]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd,
            input=spec.get("stdin"),
            capture_output=True,
            text=True,
            cwd=ctx["root"],
            env=ctx["env"],
            timeout=120,
        )
        if tracer is not None:
            with open(f"{prefix}.json") as fh:
                doc = json.load(fh)
            with np.load(f"{prefix}.npz") as spans:
                tracer.merge(doc, spans, tracer.current_span())
            os.unlink(f"{prefix}.json")
            os.unlink(f"{prefix}.npz")
            # perf_counter is CLOCK_MONOTONIC, one clock for every process on
            # Linux: start-up runs from the spawn to the entry of cli.main,
            # less the tracer's own installation in the child.
            tracer.counters.update(
                {
                    "cli.invocations": 1,
                    "cli.startup_s": doc["main_start"] - t0 - doc["install_s"],
                    "cli.stdout_bytes": len(proc.stdout.encode()),
                }
            )
        return proc

    def check(self, spec, proc) -> bytes:
        argv = spec["argv"]
        need(proc.returncode == 0, f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        out = proc.stdout
        if "--format" in argv:
            rows = list(csv.reader(io.StringIO(out)))
            lo, hi = (int(x) for x in argv[argv.index("--g-range") + 1].split(":"))
            need(rows[0] == ["input", "clause", "pass"] and len(rows) == 1 + 3 * (hi - lo + 1), "bad CSV shape")
            need(all(len(r) == 3 and r[2] in ("True", "False") for r in rows[1:]), "bad CSV row")
            for g, i in zip(range(lo, hi + 1), range(1, len(rows), 3)):
                d = 2 * g - 2
                need(rows[i] == [str(d), "case_a", str(_case_a(d))], f"case_a wrong for d={d}")
                need(rows[i + 1] == [str(d), "case_b", str(_case_b(d))], f"case_b wrong for d={d}")
            return out.encode()
        doc = strict_json(out)
        cmd = argv[:2]
        value = {a: argv[i + 1] for i, a in enumerate(argv) if a.startswith("--")}
        if cmd == ["lattice", "info"]:
            d = int(value["--d"])
            need(doc["det"] == d and math.prod(doc["disc_group"]["divisors"]) == d and len(doc["disc_group"]["q"]) == d, "lattice info inconsistent with det = d")
        elif cmd == ["heegner", "cubic"]:
            d = int(value["--d"])
            need(doc["index"]["n"] == str(Fraction(d, 6)) and doc["index"]["gamma"] == ("gamma0" if d % 6 == 0 else "gamma1"), "cubic index wrong")
        elif cmd == ["heegner", "gm"]:
            d = int(value["--d"])
            need(all(i["n"] == str(Fraction(d, 8)) for i in doc["indices"]), "GM index wrong")
            need(len(doc["indices"]) == (2 if d % 8 == 2 else 1), "GM orbit count wrong")
        elif cmd == ["heegner", "hk"]:
            n, d = int(value["--n"]), int(value["--d"])
            need(doc["n"] == str(Fraction(d, 8 * n)) and doc["disc"] == 4 * n, "HK index wrong")
        elif cmd[0] == "embed":
            d = int(value["--d"])
            need(doc["det_check"]["pass"] and doc["det_check"]["lhs"] == str(Fraction(d, 2**7)), "embed det check failed")
            w = doc["image_basis"][20][16:24]
            need(math.gcd(*w) == 1 and sum(w[i] * E8[i][j] * w[j] for i in range(8) for j in range(8)) == d, "embed image not primitive of norm d")
        elif cmd[0] == "bound":
            g = int(value["--g"])
            uniform = [r for r in doc["routes"] if r["route"] == "uniform"]
            need(len(uniform) == 1 and uniform[0]["det_check_pass"] and uniform[0]["multiplier"] == 2 ** len(prime_factors(g - 1)), "bound uniform route wrong")
        elif cmd == ["weil", "check"]:
            n = int(value["--n"])
            need(doc["pass"] and len(doc["relations"]) == 4 and doc["dim"] == (4 * n if value["--delta"] == "1" else n), "weil check failed")
            for r in doc["relations"]:
                need(r["pass"] and r["max_deviation"] <= 1e-9, "weil relation failed")
                r.pop("max_deviation")  # floating point; depends on BLAS
            return canonical(doc)
        elif cmd == ["growth", "sandwich"]:
            need(doc["pass"] and doc["failures"] == [] and doc["zeta_lower"] <= doc["zeta_upper"], "sandwich failed")
        elif cmd == ["growth", "estimate"]:
            need(doc["count"] == len(strict_json(spec["stdin"])) and abs(doc["slope"] - spec["slope"]) < 1e-9, "growth slope wrong")
        return out.encode()


WORKLOADS = {w.name: w for w in (GenusSweep, WeilAtlas, ShellEnum, CliBatch)}
