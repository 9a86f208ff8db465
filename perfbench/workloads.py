"""The three benchmark workloads, each split into set-up, timed work and an
untimed output check.

Every call into the library goes through an attribute lookup on the
``positroids`` package or one of its classes at call time, so the tracer's
wrappers see it.  Inputs for ``query-mix`` are generated from the seed as
text and JSON during set-up and parsed inside the timed query, as the CLI
does, so no library object or cache entry crosses from set-up into the timed
section.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
import random
from dataclasses import dataclass
from time import perf_counter

import positroids as P
import positroids.cli  # noqa: F401  (makes P.cli an attribute)

# -- census ------------------------------------------------------------------


class _StampedWriter:
    """File-like stand-in for stdout: writes through and stamps each record."""

    def __init__(self, fh):
        self.fh = fh
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        self.stamps.append(perf_counter())
        return self.fh.write(text)

    def flush(self) -> None:
        self.fh.flush()


class Census:
    """``positroids enumerate --what positroids`` for every rank of [n],
    run in-process through ``cli.main``, one JSONL file per rank."""

    name = "census"

    def __init__(self, params: dict, seed: int, workdir: str):
        self.n = params["n"]
        self.expected = params.get("expected")
        self.workdir = workdir
        self.codes: list[int] = []

    def setup(self) -> None:
        pass

    def sizes(self) -> dict:
        return {"n": self.n, "ranks": self.n + 1}

    def _path(self, k: int) -> str:
        return os.path.join(self.workdir, f"census-n{self.n}-k{k}.jsonl")

    def run(self) -> tuple[int, list[float]]:
        gaps: list[float] = []
        items = 0
        for k in range(self.n + 1):
            with open(self._path(k), "w") as fh:
                writer = _StampedWriter(fh)
                argv = ["enumerate", "--what", "positroids", "--k", str(k), "--n", str(self.n), "--out", "-"]
                start = perf_counter()
                with contextlib.redirect_stdout(writer):
                    self.codes.append(P.cli.main(argv))
            prev = start
            for stamp in writer.stamps:
                gaps.append(stamp - prev)
                prev = stamp
            items += len(writer.stamps)
        return items, gaps

    def digests(self) -> dict:
        out = {}
        for k in range(self.n + 1):
            with open(self._path(k), "rb") as fh:
                data = fh.read()
            out[str(k)] = [data.count(b"\n"), hashlib.sha256(data).hexdigest()]
        return out

    def check(self) -> tuple[int, int]:
        """One operation per rank: exit code 0 and the pinned count and digest."""
        got = self.digests()
        failed = sum(
            code != 0 or (self.expected is not None and got[str(k)] != self.expected[str(k)])
            for k, code in enumerate(self.codes)
        )
        return len(self.codes), failed


# -- flag-sweep --------------------------------------------------------------


class FlagSweep:
    """``elementary_flag_pairs(k, n)`` consumed to the end."""

    name = "flag-sweep"

    def __init__(self, params: dict, seed: int, workdir: str):
        self.k = params["k"]
        self.n = params["n"]
        self.expected = params.get("expected")
        self.pairs: list = []

    def setup(self) -> None:
        pass

    def sizes(self) -> dict:
        return {"k": self.k, "n": self.n}

    def run(self) -> tuple[int, list[float]]:
        gaps: list[float] = []
        pairs = self.pairs
        prev = perf_counter()
        for triple in P.elementary_flag_pairs(self.k, self.n):
            now = perf_counter()
            gaps.append(now - prev)
            prev = now
            pairs.append(triple)
        return len(pairs), gaps

    def digests(self) -> dict:
        h = hashlib.sha256()
        for sigma, pi, shift_set in self.pairs:
            h.update(f"{sigma.to_text()}|{pi.to_text()}|{sorted(shift_set)}\n".encode())
        return {"pairs": [len(self.pairs), h.hexdigest()]}

    def check(self) -> tuple[int, int]:
        """One operation: the whole ordered stream matches the pinned digest."""
        ok = self.expected is None or self.digests() == self.expected
        return 1, int(not ok)


# -- query-mix ---------------------------------------------------------------


def _dp_text(perm, col) -> str:
    return " ".join(f"{v}{'o' if c == 1 else 'c' if c == -1 else ''}" for v, c in zip(perm, col))


def _random_dp(rng: random.Random, n: int, coloops: bool = True) -> P.DecoratedPermutation:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    col = [0 if v != i else (rng.choice((1, -1)) if coloops else 1) for i, v in enumerate(perm, 1)]
    return P.DecoratedPermutation.from_text(_dp_text(perm, col))


def _random_subset(rng: random.Random, n: int) -> list[int]:
    return [i for i in range(1, n + 1) if rng.random() < 0.5]


def _random_lpm(rng: random.Random, n: int, k: int) -> dict:
    a = sorted(rng.sample(range(1, n + 1), k))
    b = sorted(rng.sample(range(1, n + 1), k))
    return {"n": n, "U": [min(x, y) for x, y in zip(a, b)], "L": [max(x, y) for x, y in zip(a, b)]}


def _members(entry: dict, n: int) -> frozenset[int]:
    """Members of a CyclicInterval JSON payload, walked by hand."""
    if entry["kind"] == "full":
        return frozenset(range(1, n + 1))
    if entry["kind"] == "empty":
        return frozenset()
    out, x = {entry["start"]}, entry["start"]
    while x != entry["end"]:
        x = x % n + 1
        out.add(x)
    return frozenset(out)


def _shift_by_rotation(perm, col, frozen) -> str:
    """Reference cyclic shift: rotate the unfrozen values one step along the circle."""
    free = [i for i in range(1, len(perm) + 1) if i not in frozen]
    new_perm, new_col = list(perm), list(col)
    for prev, i in zip(free[-1:] + free[:-1], free):
        new_perm[i - 1] = perm[prev - 1]
        new_col[i - 1] = 1 if new_perm[i - 1] == i else 0
    return _dp_text(new_perm, new_col)


def _spans_every_k_subset(dp: P.DecoratedPermutation, k: int) -> bool:
    """Whether every k-subset of [n] contains a basis of the positroid of dp,
    which holds exactly when that positroid is a quotient of U_{k,n}."""
    m = P.bases_from_necklace(dp.necklace)
    r, masks = m.rank, set(m.basis_masks)
    by_subset = math.comb(k, r) <= len(masks)
    for combo in itertools.combinations(range(dp.n), k):
        t = sum(1 << i for i in combo)
        if by_subset:
            found = any(sum(1 << i for i in sub) in masks for sub in itertools.combinations(combo, r))
        else:
            found = any(b & ~t == 0 for b in masks)
        if not found:
            return False
    return True


def _quotient_by_circuits(sigma_text: str, pi_text: str) -> bool:
    m_sigma = P.positroid_of(P.DecoratedPermutation.from_text(sigma_text))
    m_pi = P.positroid_of(P.DecoratedPermutation.from_text(pi_text))
    return P.is_quotient_circuits(m_sigma, m_pi).is_quotient


def _quotient_by_rank(sigma_text: str, pi_text: str) -> bool:
    m_sigma = P.positroid_of(P.DecoratedPermutation.from_text(sigma_text))
    m_pi = P.positroid_of(P.DecoratedPermutation.from_text(pi_text))
    return P.is_quotient_rank(m_sigma, m_pi).is_quotient


class Refused(Exception):
    """A documented refusal of invalid input, which is a correct answer."""


@dataclass(frozen=True)
class Crashed:
    """The answer of a query that raised where the API documents no refusal."""

    error: str


# Timed query bodies.  Each takes the generated payload and returns an answer.


def _q_check_quotient(p):
    return _quotient_by_rank(*p)


def _q_check_circuits(p):
    return _quotient_by_circuits(*p)


def _q_check_uniform(p):
    dp = P.DecoratedPermutation.from_text(p[0])
    return P.is_quotient_of_uniform(dp, p[1]).is_quotient


def _q_lpm_greedy(p):
    return P.lpm_quotient_greedy(P.Lpm.from_json(p[0]), P.Lpm.from_json(p[1])).is_quotient


def _q_lpm_containment(p):
    return P.lpm_quotient_containment(P.Lpm.from_json(p[0]), P.Lpm.from_json(p[1])).is_quotient


def _q_shift(p):
    return P.DecoratedPermutation.from_text(p[0]).cyclic_shift(p[1]).to_text()


def _q_exists_shift(p):
    sigma, pi = (P.DecoratedPermutation.from_text(t) for t in p)
    found = P.exists_shift(pi, sigma)
    return None if found is None else sorted(found)


def _q_containment(p):
    sigma, pi = (P.DecoratedPermutation.from_text(t) for t in p)
    return P.containment_check(sigma, pi)


def _q_recover_shift(p):
    sigma, pi = (P.DecoratedPermutation.from_text(t) for t in p)
    try:
        return sorted(P.recover_shift_set(pi, sigma, verify_quotient=True))
    except ValueError as exc:
        raise Refused(str(exc)) from None


def _q_arrows(p):
    dp = P.DecoratedPermutation.from_text(p[0])
    arrows = P.cw_arrows(dp) if p[1] == "cw" else P.ccw_arrows(dp)
    return arrows.to_json()


def _q_interval_rank(p):
    text, (start, length), subset = p
    dp = P.DecoratedPermutation.from_text(text)
    n = dp.n
    interval = P.CyclicInterval.empty(n) if length == 0 else P.CyclicInterval.arc(n, start, (start + length - 2) % n + 1)
    return P.rank_cyclic_interval(dp, interval), P.rank_upper_bound(dp, subset)


def _q_convert(p):
    """``convert --from dp --to matroid`` then ``--from matroid --to dp``."""
    payload = P.positroid_of(P.DecoratedPermutation.from_text(p)).to_json()
    m = P.Matroid.from_json(payload)
    if not m.is_positroid():
        raise ValueError("matroid is not a positroid")
    return P.DecoratedPermutation.from_necklace(m.grassmann_necklace()).to_text()


def _q_convert_lpm(p):
    """``convert --from lpm --to dp``."""
    m = P.lpm_bases(P.Lpm.from_json(p))
    return P.DecoratedPermutation.from_necklace(m.grassmann_necklace()).to_text()


# Untimed checks, each by another route than the query took.


def _c_check_quotient(p, answer):
    return answer == _quotient_by_circuits(*p)


def _c_check_circuits(p, answer):
    return answer == _quotient_by_rank(*p)


def _c_check_uniform(p, answer):
    dp = P.DecoratedPermutation.from_text(p[0])
    k, n = p[1], dp.n
    if n <= 8:
        return answer == P.is_quotient_rank(P.positroid_of(dp), P.uniform_matroid(k, n)).is_quotient
    return answer == _spans_every_k_subset(dp, k)


def _c_lpm_greedy(p, answer):
    return answer == P.lpm_quotient_containment(P.Lpm.from_json(p[0]), P.Lpm.from_json(p[1])).is_quotient


def _c_lpm_containment(p, answer):
    return answer == P.lpm_quotient_greedy(P.Lpm.from_json(p[0]), P.Lpm.from_json(p[1])).is_quotient


def _c_shift(p, answer):
    dp = P.DecoratedPermutation.from_text(p[0])
    return answer == _shift_by_rotation(dp.perm, dp.col, set(p[1]))


def _c_exists_shift(p, answer):
    sigma, pi = (P.DecoratedPermutation.from_text(t) for t in p)
    contained = pi.necklace.contains_entrywise(sigma.necklace)
    if answer is None:
        return not contained
    return contained and _shift_by_rotation(pi.perm, pi.col, set(answer)) == p[0]


def _c_containment(p, answer):
    """Necklace containment is equivalent to a shift existing (pairs have
    rank gap 1); conecklace containment is read off the Gale maxima of the
    explicit bases."""
    sigma, pi = (P.DecoratedPermutation.from_text(t) for t in p)
    neck = P.exists_shift(pi, sigma) is not None
    coneck = all(
        a <= b
        for a, b in zip(
            P.positroid_of(sigma).grassmann_conecklace().entries, P.positroid_of(pi).grassmann_conecklace().entries
        )
    )
    return tuple(answer) == (neck, coneck)


def _c_recover_shift(p, answer):
    quotient = _quotient_by_circuits(*p)
    if isinstance(answer, Refused):
        return not quotient
    pi = P.DecoratedPermutation.from_text(p[1])
    return quotient and _shift_by_rotation(pi.perm, pi.col, set(answer)) == p[0]


def _c_arrows(p, answer):
    dp = P.DecoratedPermutation.from_text(p[0])
    n, cw = dp.n, p[1] == "cw"
    expected = []
    for i in range(1, n + 1):
        j, c = dp.perm[i - 1], dp.col[i - 1]
        if c == (-1 if cw else 1):
            expected.append(frozenset(range(1, n + 1)))
        else:
            expected.append(_members({"kind": "arc", "start": i if cw else j, "end": j if cw else i}, n))
    return [_members(a, n) for a in answer] == expected


def _c_interval_rank(p, answer):
    text, (start, length), subset = p
    dp = P.DecoratedPermutation.from_text(text)
    m, n = P.positroid_of(dp), dp.n
    members = [(start + d - 1) % n + 1 for d in range(length)]
    return answer[0] == m.rank_of(members) and answer[1] >= m.rank_of(subset)


def _c_convert(p, answer):
    dp = P.DecoratedPermutation.from_text(p)
    gale = P.positroid_of(dp).grassmann_necklace().entries
    return answer == p and gale == dp.necklace.entries


def _c_convert_lpm(p, answer):
    m = P.positroid_of(P.DecoratedPermutation.from_text(answer))
    lpm = P.Lpm.from_json(p)
    upper, lower = sorted(lpm.U), sorted(lpm.L)
    brute = {
        frozenset(c)
        for c in itertools.combinations(range(1, lpm.n + 1), lpm.k)
        if all(u <= x <= l for u, x, l in zip(upper, c, lower))
    }
    return set(m.bases) == brute


class QueryMix:
    """A seeded closed-loop stream of independent one-off checks, one client,
    each query parsing its own input as the CLI would."""

    name = "query-mix"

    def __init__(self, params: dict, seed: int, workdir: str):
        self.per_kind = params["per_kind"]
        self.rng = random.Random(f"query-mix:{seed}")
        self.queries: list[tuple[str, object]] = []
        self.answers: list = []
        self.latencies: list[float] = []
        self.failures: list = []
        self._used: set[str] = set()

    # -- generation ----------------------------------------------------------

    def _fresh_dp(self, n: int, coloops: bool = True) -> P.DecoratedPermutation:
        """A random decorated permutation not yet used in this stream, so
        that no query is answered from another query's cache entries."""
        for _ in range(50):
            dp = _random_dp(self.rng, n, coloops)
            if dp.to_text() not in self._used:
                break
        self._used.add(dp.to_text())
        return dp

    def _pair(self, n: int) -> tuple[str, str]:
        """(sigma, pi) with rank(sigma) = rank(pi) - 1; half of the sigmas
        are tried first as cyclic shifts of pi, so that both verdicts occur."""
        rng = self.rng
        for attempt in itertools.count():
            pi = self._fresh_dp(n)
            if pi.rank == 0:
                continue
            shifted = (pi.cyclic_shift(_random_subset(rng, n)) for _ in range(20 * (rng.random() < 0.5)))
            drawn = (_random_dp(rng, n) for _ in range(30))
            for sigma in itertools.chain(shifted, drawn):
                text = sigma.to_text()
                # on a small ground set every sigma may be taken; then allow reuse
                if sigma.rank == pi.rank - 1 and (text not in self._used or attempt >= 10):
                    self._used.add(text)
                    return text, pi.to_text()

    def _lpm_pair(self, n: int) -> tuple[dict, dict]:
        rng = self.rng
        k = rng.randint(1, n - 1)
        sup = _random_lpm(rng, n, k)
        if rng.random() < 0.6:
            drop = rng.randint(0, k - 1)
            for _ in range(20):
                u = sorted(rng.sample(sup["U"], k - drop))
                low = sorted(rng.sample(sup["L"], k - drop))
                if all(a <= b for a, b in zip(u, low)):
                    return {"n": n, "U": u, "L": low}, sup
        return _random_lpm(rng, n, rng.randint(1, k)), sup

    def _payload(self, kind: str, n: int):
        rng = self.rng
        if kind in ("check-quotient", "check-circuits", "containment", "recover-shift", "exists-shift"):
            return self._pair(n)
        if kind == "check-uniform":
            dp = self._fresh_dp(n)
            while dp.rank >= n:
                dp = self._fresh_dp(n)
            return dp.to_text(), rng.randint(max(dp.rank, 1), n - 1)
        if kind in ("lpm-greedy", "lpm-containment"):
            return self._lpm_pair(n)
        if kind == "shift":
            return self._fresh_dp(n).to_text(), _random_subset(rng, n)
        if kind == "arrows":
            return self._fresh_dp(n).to_text(), rng.choice(("cw", "ccw"))
        if kind == "interval-rank":
            dp = self._fresh_dp(n, coloops=False)
            subset = _random_subset(rng, n)
            if len(subset) == n:
                subset.pop()
            return dp.to_text(), (rng.randint(1, n), rng.randint(0, n - 1)), subset
        if kind == "convert":
            return self._fresh_dp(n).to_text()
        if kind == "convert-lpm":
            return _random_lpm(rng, n, rng.randint(1, n - 1))
        raise ValueError(kind)

    def setup(self) -> None:
        """per_kind queries of each kind, their ground sizes spread evenly
        over the kind's range, in a seeded shuffle."""
        plan = [
            (kind, lo + i % (hi - lo + 1))
            for kind, (_, _, (lo, hi)) in KINDS.items()
            for i in range(self.per_kind)
        ]
        self.rng.shuffle(plan)
        self.queries = [(kind, self._payload(kind, n)) for kind, n in plan]

    def sizes(self) -> dict:
        return {"queries": len(self.queries), "kinds": len(KINDS), "per_kind": self.per_kind}

    # -- timed ---------------------------------------------------------------

    def run(self) -> tuple[int, list[float]]:
        answers, latencies = self.answers, self.latencies
        for kind, payload in self.queries:
            body = KINDS[kind][0]
            t0 = perf_counter()
            try:
                answer = body(payload)
            except Refused as exc:
                answer = exc
            except Exception as exc:  # a crash is a failed query, not an abort
                answer = Crashed(repr(exc))
            latencies.append(perf_counter() - t0)
            answers.append(answer)
        return len(answers), latencies

    def by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {kind: [] for kind in KINDS}
        for (kind, _), lat in zip(self.queries, self.latencies):
            out[kind].append(lat)
        return out

    def digests(self) -> dict:
        h = hashlib.sha256()
        for answer in self.answers:
            h.update(repr(answer).encode() + b"\n")
        return {"answers": [len(self.answers), h.hexdigest()]}

    def check(self) -> tuple[int, int]:
        """One operation per query: it fails when it raised an undocumented
        error or its answer disagrees with the independent route."""
        failed = 0
        for (kind, payload), answer in zip(self.queries, self.answers):
            if isinstance(answer, Crashed) or not KINDS[kind][1](payload, answer):
                failed += 1
                if len(self.failures) < 5:
                    self.failures.append([kind, repr(payload), repr(answer)])
        return len(self.answers), failed


# kind -> (timed body, independent check, range of ground sizes).  Anything
# that builds bases stays at n <= 8; the basis-free kinds go further.
BASES = (6, 8)
KINDS = {
    "check-quotient": (_q_check_quotient, _c_check_quotient, BASES),
    "check-circuits": (_q_check_circuits, _c_check_circuits, BASES),
    "check-uniform": (_q_check_uniform, _c_check_uniform, (5, 12)),
    "lpm-greedy": (_q_lpm_greedy, _c_lpm_greedy, BASES),
    "lpm-containment": (_q_lpm_containment, _c_lpm_containment, BASES),
    "shift": (_q_shift, _c_shift, (5, 12)),
    "exists-shift": (_q_exists_shift, _c_exists_shift, (5, 12)),
    "containment": (_q_containment, _c_containment, BASES),
    "recover-shift": (_q_recover_shift, _c_recover_shift, BASES),
    "arrows": (_q_arrows, _c_arrows, (5, 16)),
    "interval-rank": (_q_interval_rank, _c_interval_rank, BASES),
    "convert": (_q_convert, _c_convert, BASES),
    "convert-lpm": (_q_convert_lpm, _c_convert_lpm, BASES),
}

WORKLOADS = {cls.name: cls for cls in (Census, FlagSweep, QueryMix)}
