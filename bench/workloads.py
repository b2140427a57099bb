"""The benchmark's workloads: job lists built from a freshly imported modsocle.

A job is one call into modsocle's public API on one `(group, p)` input,
serialized with `cli.dumps_canonical` as the CLI would print it. Builders
construct every input group before timing starts. See README.md for why each
workload was chosen and which mechanism it exercises and bypasses.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Job:
    """One timed call. `replay_key` names the call for the CLI replay check;
    `check` is an extra output check that holds whatever the golden says."""

    id: str
    call: Callable[[], str]
    replay_key: tuple = ()
    check: Callable[[str], bool] | None = None


# -- catalog_sweep ------------------------------------------------------------

VERIFY_FUNCTIONS = ("verify_reynolds_criterion", "verify_pgroup_classification",
                    "verify_sufficient_conditions", "verify_central_decomposition",
                    "verify_isoclinism_pair", "verify_quotient_and_product_closure")

CLI_COMMANDS = tuple(
    (f"{cmd}-p{p}", argv + ["--prime", str(p)])
    for cmd, argv in (("verify", ["verify", "--suite", "all"]), ("census", ["census"]))
    for p in (2, 3))


def replay_key(fn_name: str, args: tuple, kwargs: dict) -> tuple:
    """What identifies a verify or census call: function, group names, prime
    and the normal subgroup's members."""
    key: list = [fn_name]
    for value in list(args) + [kwargs[k] for k in sorted(kwargs)]:
        if hasattr(value, "table"):
            key.append(value.name)
        elif hasattr(value, "members"):
            key.append(tuple(sorted(value.members)))
        else:
            key.append(value)
    return tuple(key)


def _fresh_catalog(ms: SimpleNamespace):
    # One catalog per CLI command and prime, as separate CLI runs would have.
    ms.catalog.builtin_catalog.cache_clear()
    return ms.catalog.builtin_catalog()


def _verify_job(ms, jobs: list, segment: str, fn_name: str, *args, **kwargs) -> None:
    fn = getattr(ms.verify, fn_name)
    dumps = ms.cli.dumps_canonical
    label = ",".join(a.name for a in args if hasattr(a, "table"))
    jobs.append(Job(
        id=f"{segment}:{len(jobs):03d}:{fn_name}:{label}",
        call=lambda: dumps(fn(*args, **kwargs).to_dict(), indent=None),
        replay_key=replay_key(fn_name, args, kwargs)))


def _is_p_group(order: int, p: int) -> bool:
    while order % p == 0:
        order //= p
    return order == 1


def catalog_sweep(ms: SimpleNamespace, seed: int) -> list[Job]:
    """Every report `verify --suite all` and `census` print at p = 2 and 3, in
    CLI order."""
    out: list[Job] = []
    for segment, argv in CLI_COMMANDS:
        p = int(argv[-1])
        entries = _fresh_catalog(ms)
        jobs: list[Job] = []
        if segment.startswith("census"):
            dumps = ms.cli.dumps_canonical
            record = ms.verify.census_record
            for name, g in sorted(entries, key=lambda e: (e[1].order, e[0])):
                jobs.append(Job(
                    id=f"{segment}:{len(jobs):03d}:census_record:{name}",
                    call=lambda name=name, g=g, p=p: dumps(record(name, g, p), indent=None),
                    replay_key=replay_key("census_record", (name, g, p), {})))
            out.extend(jobs)
            continue
        for fn_name in VERIFY_FUNCTIONS[:4]:  # suites A to D, over the catalog
            for _, g in entries:
                if fn_name != "verify_pgroup_classification" or (
                        g.order > 1 and _is_p_group(g.order, p)):
                    _verify_job(ms, jobs, segment, fn_name, g, p)
        for order in (16, 32):
            trio = [ms.constructors.family(kind, order)
                    for kind in ("dihedral", "semidihedral", "quaternion")]
            for i in range(3):
                for j in range(i + 1, 3):
                    _verify_job(ms, jobs, segment, "verify_isoclinism_pair", trio[i], trio[j], p)
        g = ms.constructors.dihedral_group(32)
        while g.order > 4:
            z = ms.groups.center(g)
            _verify_job(ms, jobs, segment, "verify_quotient_and_product_closure", g, p, n_sub=z)
            g, _ = ms.groups.quotient(g, z)
        d16 = ms.constructors.dihedral_group(16)
        for n_sub in ms.groups.normal_subgroups(d16):
            if 1 < n_sub.order < d16.order:
                _verify_job(ms, jobs, segment, "verify_quotient_and_product_closure",
                            d16, p, n_sub=n_sub)
        out.extend(jobs)
    return out


class _Replayed:
    """Stands in for a VerdictReport whose canonical JSON a job produced."""

    def __init__(self, text: str):
        self._doc = json.loads(text)
        self.group_name = self._doc["group"]["name"]
        self.all_agree = self._doc["all_agree"]

    def to_dict(self) -> dict:
        return self._doc


def cli_replay(ms: SimpleNamespace, argv: list[str], jobs: list[Job],
               texts: list[str]) -> str:
    """Run the CLI with its report calls answered, in order, by the given
    jobs' outputs; return its stdout.

    A call the CLI makes that is not the next job's raises, so the job list
    cannot drift from what the CLI computes, and nothing is computed twice.
    """
    queue = iter(zip(jobs, texts))

    def answer(fn_name: str, wrap):
        def replay(*args, **kwargs):
            job, text = next(queue, (None, None))
            key = replay_key(fn_name, args, kwargs)
            if job is None or key != job.replay_key:
                raise AssertionError(f"CLI called {key}, job list has "
                                     f"{job.replay_key if job else 'nothing'}")
            return wrap(text)
        return replay

    if argv[0] == "census":
        patches = [(ms.verify, "census_record", answer("census_record", json.loads))]
    else:
        patches = [(ms.cli, name, answer(name, _Replayed)) for name in VERIFY_FUNCTIONS]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    stdout = io.StringIO()
    try:
        for module, name, fn in patches:
            setattr(module, name, fn)
        with contextlib.redirect_stdout(stdout):
            code = ms.cli.main(argv)
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    if code != 0:
        raise AssertionError(f"CLI {' '.join(argv)} exited with {code}")
    if next(queue, None) is not None:
        raise AssertionError(f"CLI {' '.join(argv)} made fewer calls than the job list")
    return stdout.getvalue()


# -- analyze workloads ------------------------------------------------------------


def _analyze_jobs(ms: SimpleNamespace, inputs, check_for=None) -> list[Job]:
    jobs = []
    dumps, analyze = ms.cli.dumps_canonical, ms.cli.analysis_document
    for spec, p in inputs:
        g = ms.cli.group_from_spec(spec)
        jobs.append(Job(id=f"analyze:{spec}:p{p}",
                        call=lambda g=g, p=p: dumps(analyze(g, p)),
                        check=check_for(g, p) if check_for else None))
    return jobs


def socle_large(ms: SimpleNamespace, seed: int) -> list[Job]:
    return _analyze_jobs(ms, [("dihedral:512", 2), ("quaternion:512", 2)])


def lattice_nonp(ms: SimpleNamespace, seed: int) -> list[Job]:
    return _analyze_jobs(ms, [("holomorph:15", 2), ("dihedral:96", 3)])


def _primes_from(start: int, count: int) -> tuple[int, ...]:
    out = []
    n = start
    while len(out) < count:
        if all(n % f for f in range(2, int(n ** 0.5) + 1)):
            out.append(n)
        n += 1
    return tuple(out)


# The band is narrow (under 0.2% wide) so that the drawn prime does not
# change the work, which grows linearly with p.
LARGE_PRIMES = _primes_from(100_000, 16)
LARGE_PRIME_GROUPS = ("dihedral:16", "quaternion:16", "name:S4", "name:E27")


def large_prime_for(seed: int) -> int:
    return random.Random(seed).choice(LARGE_PRIMES)


def semisimple_check(g, p: int) -> Callable[[str], bool]:
    """Holds at any p not dividing |G|: the radical of the center is 0, the
    socle, Reynolds ideal and center all have the class count as dimension,
    and both verdicts say whether G is abelian. The class count is Burnside's
    count of commuting pairs over |G|, independent of modsocle's classes."""
    def check(text: str) -> bool:
        table = np.asarray(g.table)
        classes = int(np.count_nonzero(table == table.T)) // g.order
        abelian = bool(np.array_equal(table, table.T))
        doc = json.loads(text)
        dims, verdicts = doc["dimensions"], doc["verdicts"]
        return (g.order % p != 0 and doc["prime"] == p
                and dims["jacobson_center"] == 0
                and dims["socle_center"] == dims["reynolds"] == dims["center"] == classes
                and verdicts["socle_ideal"] is abelian
                and verdicts["reynolds_ideal"] is abelian
                and verdicts["semisimple"] is True)

    return check


def large_prime_jobs(ms: SimpleNamespace, p: int) -> list[Job]:
    return _analyze_jobs(ms, [(spec, p) for spec in LARGE_PRIME_GROUPS], semisimple_check)


def large_prime(ms: SimpleNamespace, seed: int) -> list[Job]:
    return large_prime_jobs(ms, large_prime_for(seed))


WORKLOADS: dict[str, Callable[[SimpleNamespace, int], list[Job]]] = {
    "catalog_sweep": catalog_sweep,
    "socle_large": socle_large,
    "lattice_nonp": lattice_nonp,
    "large_prime": large_prime,
}
