"""Seeded job lists for the three benchmark workloads.

A job is one `metalie` command line (plus its stdin) and the answer it must
give.  Each workload enumerates its candidate jobs in families.  A pass takes
a fixed number of jobs from each family's cost band: the band's candidates,
sorted by their cost in `costs.json`, are cut into that many strata of equal
size and `random.Random(seed)` picks one job in each.  So different seeds give
different inputs with the same cost profile, and the benchmark replays whole
passes, so two commits always time the same job mix.

`costs.json` holds the lower of two measured times of every candidate,
recorded by `calibrate.py` at the commit that introduced the benchmark.  It only steers
the draws; a later commit keeps it, so both sides of a comparison draw the
same jobs.  Catalog has only 35 distinct jobs, so its pass is a fixed
multiset and the seed only orders it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from checks import expected_dims

WORKLOADS = ("hilbert", "catalog", "invariance")
COSTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "costs.json")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect: dict = field(compare=False)
    stdin: str | None = None

    @property
    def key(self) -> str:
        """Stable name of the job in `costs.json`."""
        text = json.dumps([self.argv, self.stdin])
        return hashlib.sha1(text.encode()).hexdigest()[:16]


# (family, lowest cost, highest cost, jobs per pass); costs in seconds
PASS_SHAPE = {
    # 80 small jobs hold the median, 19 of 0.2 - 0.5 s the 90th percentile, and
    # one rank-9 series at N = 10 sets the peak memory
    "hilbert": [("series", 0.01, 0.08, 80), ("series", 0.2, 0.5, 19), ("memory", 0, 9, 1)],
    # 80 light jobs, most of them below 10 ms; 20 heavy ones cost 0.2 - 0.6 s,
    # most of them 0.25 - 0.45 s, so that the 90th percentile falls inside a
    # dense band; V_40, the widest block, sets the peak memory
    "invariance": [("normalize", 0, 9, 12), ("pi", 0, 9, 12), ("check", 0, 0.2, 44),
                   ("witness", 0, 0.25, 8), ("wide", 0, 0.25, 4),
                   ("wide", 0.25, 0.45, 14), ("check", 0.2, 0.6, 3), ("witness", 0.25, 0.6, 3),
                   ("widest", 0, 9, 1)],
}


# -- hilbert: the character pipeline -------------------------------------------

HILBERT_TARGETS = ("polyring", "metabelian", "invariant-ring", "invariant-module")


def hilbert_specs(max_dim: int = 9):
    """1 to 3 blocks of degree 0 to 8 in non-increasing order, rank <= max_dim."""
    for r in (1, 2, 3):
        for blocks in itertools.product(range(8, -1, -1), repeat=r):
            if list(blocks) == sorted(blocks, reverse=True) \
                    and sum(k + 1 for k in blocks) <= max_dim:
                yield blocks


def hilbert_job(blocks, target: str, n: int) -> Job:
    spec = ",".join(map(str, blocks))
    return Job(("hilbert", spec, target, "-N", str(n), "--json"),
               {"exit": 0, "dims": expected_dims(blocks, target, n)})


def _hilbert_candidates() -> dict[str, list[Job]]:
    # rough seconds per monomial of degree <= N, i.e. per C(N + d, d); this
    # only bounds what calibrate.py measures
    rate = {"polyring": 9e-6, "invariant-ring": 12e-6,
            "metabelian": 40e-6, "invariant-module": 65e-6}
    series, memory = [], []
    for blocks in hilbert_specs():
        d = sum(k + 1 for k in blocks)
        for target in HILBERT_TARGETS:
            if d < 2 and target in ("metabelian", "invariant-module"):
                continue
            for n in range(8, 17):
                monomials = comb(n + d, d)
                if monomials <= 40000 and 0.006 <= monomials * rate[target] <= 0.75:
                    series.append(hilbert_job(blocks, target, n))
        if d == 9:  # the pass's largest series, C(19, 9) = 92378 monomials
            memory.append(hilbert_job(blocks, "invariant-ring", 10))
    return {"series": series, "memory": memory}


# -- catalog: the paper's seven cases --------------------------------------------

# Every (case, degree) pair once, the cheap cases i - iii five times, and
# (v, 12) and (vi, 10), about 0.75 s each, six times: those twelve jobs lie
# between the four heaviest and the rest, so the 90th percentile falls among
# them.
_CATALOG_CLUSTER = {("v", 12), ("vi", 10)}


def _catalog_pass() -> list[Job]:
    jobs = []
    for case in ("i", "ii", "iii", "iv", "v", "vi", "vii"):
        for n in range(8, 13):
            repeats = 5 if case in ("i", "ii", "iii") else 6 if (case, n) in _CATALOG_CLUSTER else 1
            jobs += [Job(("catalog", "verify", "--case", case, "--degree", str(n), "--json"),
                         {"exit": 0, "case": case, "degree": n})] * repeats
    return jobs


# -- invariance: element-level checks, witnesses, pi, normalize ------------------

def _noninvariant_term(blocks, lie: bool, e: int) -> str:
    """A term moved by g1: xi_k^e of the first nontrivial block V_k (k >= 1),
    acting on [xi_1, xi_0] for Lie elements, which the raising derivation kills."""
    offset = 0
    for k in blocks:
        if k:
            break
        offset += 1
    top = f"x{offset + k + 1}^{e}"
    return f"[x{offset + 2},x{offset + 1}].({top})" if lie else top


def _check_candidates(catalog) -> list[Job]:
    """Catalog generators times up to two ring generators, each as is (exit 0)
    and plus a non-invariant term (exit 1)."""
    jobs = []
    for case in catalog.values():
        rings = case.ring_generator_texts
        for kind, gens in (("module", case.module_generator_texts), ("ring", rings)):
            for gen, power in itertools.product(gens, range(3)):
                for factors in itertools.combinations_with_replacement(rings, power):
                    if kind == "module":
                        text = f"({gen})" + "".join(f".({f})" for f in factors)
                    else:
                        text = "*".join(f"({f})" for f in (gen, *factors))
                    jobs.append(Job(("check", str(case.spec), "-", "--json"),
                                    {"exit": 0}, stdin=text))
                    for e in (1, 2):
                        bad = _noninvariant_term(case.spec.blocks, kind == "module", e)
                        jobs.append(Job(("check", str(case.spec), "-", "--json"),
                                        {"exit": 1}, stdin=f"{text} + {bad}"))
    return jobs


def wide_block_check(k: int, top: bool, e: int) -> Job:
    """Non-invariant power of xi_k (moved by g1) or of xi_0 (moved by g2 only)
    on the single block V_k; deciding it builds the dense matrix logarithms."""
    var = f"x{k + 1}" if top else "x1"
    return Job(("check", str(k), "-", "--json"), {"exit": 1}, stdin=f"{var}^{e}")


def witness_job(spec: str, count: int) -> Job:
    return Job(("witness", spec, "--count", str(count), "--json"),
               {"exit": 0, "count": count})


_WITNESS_COUNTS = {"2,0": 6, "1,1": 6, "2,1": 6, "1,1,1": 6, "2,2": 6, "3": 3, "4": 2}


def _pi_candidates(catalog) -> list[Job]:
    """pi of two independent ring invariants: two generators of one catalog
    case, or a generator and an appended trivial variable."""
    jobs = []
    for case in catalog.values():
        rings = case.ring_generator_texts
        pairs = [(str(case.spec), f1, f2) for f1, f2 in itertools.permutations(rings, 2)]
        pairs += [(f"{case.spec},0", f"x{case.spec.dimension + 1}", f) for f in rings]
        for (spec, f1, f2), e1, e2 in itertools.product(pairs, (1, 2), (1, 2)):
            jobs.append(Job(("pi", spec, f"({f1})^{e1}", f"({f2})^{e2}", "--json"),
                            {"exit": 0}))
    return jobs


def normalize_job(text: str) -> Job:
    # the CLI takes the rank from the generators inside the brackets
    rank = max(int(j) for j in re.findall(r"x(\d+)", "".join(re.findall(r"\[[^\]]*\]", text))))
    return Job(("normalize", text), {"exit": 0, "dim": rank})


def _normalize_candidates(count: int = 200) -> list[Job]:
    """Sums of one to three left-normed brackets in rank 2 to 4, some acted on."""
    rng = random.Random("normalize")
    jobs = []
    for _ in range(count):
        dim = rng.randint(2, 4)
        text = ""
        for i in range(rng.randint(1, 3)):
            word = [rng.randint(1, dim) for _ in range(rng.randint(2, 4))]
            term = "[" + ",".join(f"x{j}" for j in word) + "]"
            if rng.random() < 0.4:
                term += f".(x{rng.choice(word)}^{rng.randint(1, 2)})"
            sign = rng.choice((" + ", " - ")) if i else ""
            text += sign + rng.choice(("", "2*", "3/2*")) + term
        jobs.append(normalize_job(text))
    return jobs


def _invariance_candidates() -> dict[str, list[Job]]:
    from metalie.invariants import load_catalog

    catalog = load_catalog()
    return {
        "check": _check_candidates(catalog),
        "pi": _pi_candidates(catalog),
        "normalize": _normalize_candidates(),
        "witness": [witness_job(spec, c) for spec, top in _WITNESS_COUNTS.items()
                    for c in range(1, top + 1)],
        "wide": [wide_block_check(k, top, e) for k in range(12, 41)
                 for top in (True, False) for e in (1, 2, 3)],
        "widest": [wide_block_check(40, True, 3)],
    }


# every job a pass of the drawn workloads may contain, by family
CANDIDATES = {"hilbert": _hilbert_candidates, "invariance": _invariance_candidates}


@lru_cache(maxsize=None)
def load_costs() -> dict[str, float]:
    with open(COSTS_FILE) as fh:
        return json.load(fh)


def stratified(rng: random.Random, pool: list[Job], count: int, costs) -> list[Job]:
    """Sort by cost, cut into `count` equal strata, pick one job in each; a
    pool smaller than `count` repeats its jobs."""
    pool = sorted(pool, key=lambda job: (costs[job.key], job.key))
    if not pool:
        raise ValueError("no candidate in the cost band")
    n = len(pool)
    return [rng.choice(pool[i * n // count:max((i + 1) * n // count, i * n // count + 1)])
            for i in range(count)]


def make_pass(workload: str, seed: int) -> list[Job]:
    """One pass of `workload` for `seed`: the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        jobs = _catalog_pass()
    else:
        costs = load_costs()
        families = CANDIDATES[workload]()
        jobs = []
        for family, low, high, count in PASS_SHAPE[workload]:
            band = [job for job in families[family] if low <= costs[job.key] <= high]
            jobs += stratified(rng, band, count, costs)
    rng.shuffle(jobs)
    return jobs
