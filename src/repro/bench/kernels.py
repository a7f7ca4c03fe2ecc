"""Generated-and-measured event-core kernels (``--tune`` / receipts).

The cohort drain loop (:meth:`repro.simtime.core.Simulator._run_cohort`)
is hot enough to specialize.  This module follows the measure-everything
idiom: *generate* the specialized inner loop, *prove* it bitwise-identical
to the builtin on a differential battery, *measure* it on this host, and
*keep the receipts* — a versioned JSON artifact recording the variant that
actually won here, with the numbers that justify the choice.

Variants
--------
Dispatch (``fn(sim, horizon)``; installed via
:func:`repro.simtime.core.install_dispatch_kernel`):

- ``dx_generic`` — the hand-written builtin (no kernel installed).
- ``dx_drain`` — the builtin's source with the ``horizon`` checks folded
  away for the ``run()`` path (full drains never consult a horizon);
  bounded drains fall back to the builtin.
- ``dx_split`` — both specializations: a horizon-free body for ``run()``
  and a body with the ``is not None`` tests pre-folded for
  ``run_horizon()``.

Every specialized variant performs the same operations in the same order
as the builtin, so traces and counters stay bitwise-identical; the battery
in :func:`verify_dispatch_variant` enforces this before a variant becomes
eligible, and the scalar event loop remains the oracle for all of it.

Receipts are validated on load: a version bump, a different host
fingerprint, or an unknown variant name makes them *stale* and
:func:`activate` silently keeps the builtin.  Receipts written before the
flow solver had a single implementation carry a ``waterfill`` entry, which
is ignored.  Everything here is gated on ``REPRO_VECTOR`` — with the
vector path off the kernels are never installed.

CLI::

    python -m repro.bench.kernels --tune [--quick] [--verify] \
        [--receipts PATH] [--machines zoot,dancer,...]
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import platform
import random
import re
import sys
import textwrap
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro import vector as _vector
from repro.simtime import core as _core
from repro.simtime.core import Simulator

__all__ = [
    "KernelGenerationError", "KernelVerificationError",
    "DISPATCH_VARIANTS", "make_dispatch_kernel", "verify_dispatch_variant",
    "host_fingerprint", "tune", "activate",
    "load_receipts", "main",
]

RECEIPTS_VERSION = 1
ENV_RECEIPTS = "REPRO_KERNEL_RECEIPTS"
DEFAULT_RECEIPTS = Path(__file__).resolve().parents[3] / "BENCH_kernels.json"
PAPER_MACHINES = ("zoot", "dancer", "saturn", "ig")
#: a specialized variant must beat the builtin by this factor to be
#: recorded as the winner (hysteresis: re-tuning on the same host must
#: reproduce the recorded winner despite run-to-run noise)
WIN_MARGIN = 1.03


class KernelGenerationError(RuntimeError):
    """The builtin's source no longer matches the generation template."""


class KernelVerificationError(AssertionError):
    """A generated kernel diverged from the builtin on the battery."""


def host_fingerprint() -> dict[str, Any]:
    """What must match for persisted receipts to stay valid here."""
    import numpy
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count() or 1,
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------
# dispatch kernel generation (source transformation of the builtin)
# ---------------------------------------------------------------------------

def _builtin_drain_source() -> list[str]:
    src = textwrap.dedent(inspect.getsource(Simulator._run_cohort))
    return src.splitlines()


def _specialize_drain(name: str, horizon_known: bool) -> str:
    """Generate a drain-loop source with the horizon tests specialized.

    ``horizon_known=False`` deletes the two ``horizon is not None and ...``
    guard blocks entirely (the ``run()`` path never passes one);
    ``horizon_known=True`` folds the ``is not None`` test to true.  Any
    drift in the builtin's source that breaks the expected shape raises
    :class:`KernelGenerationError` so tuning falls back to the builtin
    instead of silently generating garbage.
    """
    lines = _builtin_drain_source()
    out: list[str] = []
    folded = 0
    i = 0
    while i < len(lines):
        line = lines[i]
        if "horizon is not None and" in line:
            folded += 1
            if horizon_known:
                out.append(line.replace("horizon is not None and ", ""))
                i += 1
            else:
                if i + 1 >= len(lines) or lines[i + 1].strip() != "return":
                    raise KernelGenerationError(
                        f"unexpected horizon guard shape at line {i}: "
                        f"{line!r}")
                i += 2  # drop the guard and its return
            continue
        out.append(line)
        i += 1
    if folded != 2:
        raise KernelGenerationError(
            f"expected 2 horizon guards in _run_cohort, found {folded}")
    header = re.compile(r"def _run_cohort\(self, horizon[^)]*\)[^:]*:")
    if not header.search(out[0]):
        raise KernelGenerationError(f"unexpected header: {out[0]!r}")
    out[0] = header.sub(f"def {name}(self, horizon=None):", out[0])
    return "\n".join(out) + "\n"


def _compile_in(module, src: str, name: str) -> Callable:
    """Exec generated source in a copy of ``module``'s globals."""
    namespace = dict(vars(module))
    code = compile(src, f"<generated kernel {name}>", "exec")
    exec(code, namespace)
    fn = namespace[name]
    fn.generated_source = src
    return fn


def _make_dx_drain() -> Callable:
    body = _compile_in(_core, _specialize_drain("dx_drain_body", False),
                       "dx_drain_body")
    builtin = Simulator._run_cohort

    def dx_drain(sim: Simulator, horizon: Optional[float]) -> None:
        if horizon is None:
            body(sim, None)
        else:
            builtin(sim, horizon)

    dx_drain.generated_source = body.generated_source
    return dx_drain


def _make_dx_split() -> Callable:
    free = _compile_in(_core, _specialize_drain("dx_split_free", False),
                       "dx_split_free")
    bound = _compile_in(_core, _specialize_drain("dx_split_bound", True),
                        "dx_split_bound")

    def dx_split(sim: Simulator, horizon: Optional[float]) -> None:
        if horizon is None:
            free(sim, None)
        else:
            bound(sim, horizon)

    dx_split.generated_source = (free.generated_source
                                 + "\n" + bound.generated_source)
    return dx_split


#: name -> nullary factory returning the kernel callable (``None`` = keep
#: the builtin).  Factories regenerate from the *current* builtin source,
#: so a stale receipts file can never resurrect an outdated loop.
DISPATCH_VARIANTS: dict[str, Callable[[], Optional[Callable]]] = {
    "dx_generic": lambda: None,
    "dx_drain": _make_dx_drain,
    "dx_split": _make_dx_split,
}


def make_dispatch_kernel(name: str) -> Optional[Callable]:
    try:
        factory = DISPATCH_VARIANTS[name]
    except KeyError:
        raise KernelGenerationError(f"unknown dispatch variant {name!r}")
    return factory()


# ---------------------------------------------------------------------------
# differential battery (bitwise equivalence against the builtins)
# ---------------------------------------------------------------------------

def _dispatch_workload(sim: Simulator, trace: list, seed: int) -> None:
    """A heterogeneous event mix: colliding timeout chains, same-instant
    event cohorts, a delivered failure, shared-timeout waiters, a kill."""
    rng = random.Random(seed)

    def chain(tag: int, steps: int, delay: float):
        for i in range(steps):
            got = yield sim.timeout(delay, value=i)
            trace.append(("chain", tag, sim.now, got))

    for k in range(4):
        sim.process(chain(k, 25, 1e-6 * (1 + k % 2)), name=f"chain-{k}")

    events = [sim.event(f"e{i}") for i in range(8)]

    def poker():
        yield sim.timeout(5e-6)
        for i, ev in enumerate(events):
            ev.succeed(i * 10)

    def waiter(i: int):
        got = yield events[i]
        trace.append(("event", i, sim.now, got))
        yield sim.timeout(1e-6, value="tail")
        trace.append(("tail", i, sim.now))

    for i in range(len(events)):
        sim.process(waiter(i), name=f"waiter-{i}")
    sim.process(poker(), name="poker")

    def failer():
        boom = sim.event("boom")
        sim.schedule(2e-6, lambda: boom.fail(RuntimeError("boom")))
        try:
            yield boom
        except RuntimeError as exc:
            trace.append(("caught", str(exc), sim.now))

    sim.process(failer(), name="failer")

    shared = sim.timeout(3e-6, value="shared")

    def shared_waiter(tag: str):
        got = yield shared
        trace.append(("shared", tag, sim.now, got))

    sim.process(shared_waiter("a"), name="shared-a")
    sim.process(shared_waiter("b"), name="shared-b")

    def victim():
        yield sim.timeout(50e-6)
        trace.append(("victim-survived",))

    prey = sim.process(victim(), name="victim")

    def killer():
        yield sim.timeout(4e-6)
        prey.kill()
        trace.append(("killed", sim.now))

    sim.process(killer(), name="killer")

    for k in range(3):
        delays = [rng.choice([5e-7, 1e-6, 2e-6]) for _ in range(18)]

        def jitter(tag: int, ds: list):
            for d in ds:
                yield sim.timeout(d)
            trace.append(("jitter", tag, sim.now))

        sim.process(jitter(k, delays), name=f"jitter-{k}")


def _run_dispatch_case(seed: int, cohort: bool,
                       kernel: Optional[Callable]) -> tuple:
    prev = _core.installed_dispatch_kernel()
    _core.install_dispatch_kernel(kernel)
    try:
        sim = Simulator(cohort=cohort)
        trace: list = []
        _dispatch_workload(sim, trace, seed)
        sim.run()
        return (trace, sim.now, sim.events_processed, sim.process_resumes,
                sim.peak_heap)
    finally:
        _core.install_dispatch_kernel(prev)


def verify_dispatch_variant(name: str,
                            seeds: tuple = (1, 2, 3)) -> None:
    """Raise :class:`KernelVerificationError` unless ``name`` matches both
    the builtin cohort loop and the scalar oracle bitwise."""
    kernel = make_dispatch_kernel(name)
    for seed in seeds:
        got = _run_dispatch_case(seed, True, kernel)
        want = _run_dispatch_case(seed, True, None)
        oracle = _run_dispatch_case(seed, False, None)
        if got != want:
            raise KernelVerificationError(
                f"{name} diverged from the builtin cohort loop (seed {seed})")
        if got[:2] != oracle[:2] or got[2:] != oracle[2:]:
            raise KernelVerificationError(
                f"{name} diverged from the scalar oracle (seed {seed})")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _timed(fn: Callable[[], int]) -> float:
    """Best-practice micro timing: GC paused around the measured region
    (the ``timeit`` idiom); returns events-or-items per second."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        n = fn()
        dt = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return n / dt if dt > 0 else float("inf")


def bench_dispatch(name: str, quick: bool = False) -> float:
    """Events/sec for a timeout-chain drain under dispatch variant ``name``."""
    kernel = make_dispatch_kernel(name)
    chains, length = (10, 800) if quick else (10, 3000)
    repeats = 2 if quick else 3

    def one() -> float:
        prev = _core.installed_dispatch_kernel()
        _core.install_dispatch_kernel(kernel)
        try:
            sim = Simulator(cohort=True)

            def chain():
                timeout = sim.timeout
                for _ in range(length):
                    yield timeout(1e-9)

            for _ in range(chains):
                sim.process(chain())

            def run() -> int:
                sim.run()
                return sim.events_processed

            return _timed(run)
        finally:
            _core.install_dispatch_kernel(prev)

    one()  # warm-up
    return max(one() for _ in range(repeats))


# ---------------------------------------------------------------------------
# tuning, receipts, activation
# ---------------------------------------------------------------------------

def _pick_winner(measured: dict[str, float], generic: str) -> str:
    base = measured.get(generic, 0.0)
    best_name, best = generic, base
    for name, value in measured.items():
        if value > best:
            best_name, best = name, value
    if best_name != generic and base > 0 and best < base * WIN_MARGIN:
        return generic  # not a decisive win: keep the builtin
    return best_name


def tune(quick: bool = False, machines: tuple = PAPER_MACHINES,
         log: Callable[[str], None] = lambda s: None) -> dict[str, Any]:
    """Generate, verify, measure; return a fresh receipts dict."""
    rejected: list[dict[str, str]] = []
    log("verifying dispatch variants against the builtin + scalar oracle")
    dx_ok = []
    for name in DISPATCH_VARIANTS:
        try:
            verify_dispatch_variant(name)
        except (KernelGenerationError, KernelVerificationError) as exc:
            rejected.append({"variant": name, "reason": str(exc)})
            log(f"REJECTED {name}: {exc}")
            continue
        dx_ok.append(name)

    log("measuring dispatch variants")
    dx_measured = {name: bench_dispatch(name, quick) for name in dx_ok}
    dx_winner = _pick_winner(dx_measured, "dx_generic")
    for name, v in sorted(dx_measured.items(), key=lambda kv: -kv[1]):
        log(f"  {name}: {v:,.0f} events/s"
            + ("  <- winner" if name == dx_winner else ""))

    return {
        "version": RECEIPTS_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "host": host_fingerprint(),
        "default": {"dispatch": dx_winner},
        "measured": {"dispatch": {k: round(v, 1)
                                  for k, v in dx_measured.items()}},
        "machines": {machine: {"dispatch": dx_winner} for machine in machines},
        "rejected": rejected,
    }


def _receipts_path(path: Optional[str] = None) -> Path:
    if path:
        return Path(path)
    env = os.environ.get(ENV_RECEIPTS)
    return Path(env) if env else DEFAULT_RECEIPTS


def load_receipts(path: Optional[str] = None) -> Optional[dict]:
    p = _receipts_path(path)
    try:
        with open(p, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _staleness(receipts: Optional[dict]) -> Optional[str]:
    """None when the receipts are usable here, else the reason they are not."""
    if receipts is None:
        return "no receipts"
    if receipts.get("version") != RECEIPTS_VERSION:
        return f"receipts version {receipts.get('version')} != {RECEIPTS_VERSION}"
    host = receipts.get("host") or {}
    here = host_fingerprint()
    for key, value in here.items():
        if host.get(key) != value:
            return f"host fingerprint mismatch on {key!r} " \
                   f"({host.get(key)!r} != {value!r})"
    return None


def activate(machine: Optional[str] = None,
             path: Optional[str] = None) -> dict[str, Any]:
    """Install the recorded winner (or keep the builtin when anything is
    off: vector path disabled, receipts missing/stale/unknown variant).
    A legacy ``waterfill`` entry in the receipts is ignored.

    Returns a summary dict: ``{"active": bool, "reason": str | None,
    "dispatch": name}``.
    """
    summary = {"active": False, "reason": None, "dispatch": "dx_generic"}

    def fallback(reason: str) -> dict[str, Any]:
        _core.install_dispatch_kernel(None)
        summary["reason"] = reason
        return summary

    if not _vector.enabled():
        return fallback("REPRO_VECTOR disabled")
    receipts = load_receipts(path)
    stale = _staleness(receipts)
    if stale:
        return fallback(stale)
    entry = (receipts["machines"].get(machine) if machine
             else receipts.get("default")) or receipts.get("default") or {}
    dx = entry.get("dispatch", "dx_generic")
    if dx not in DISPATCH_VARIANTS:
        return fallback(f"unknown variant in receipts: {dx!r}")
    try:
        _core.install_dispatch_kernel(make_dispatch_kernel(dx))
    except KernelGenerationError as exc:
        return fallback(f"generation failed: {exc}")
    summary.update(active=True, dispatch=dx)
    return summary


def deactivate() -> None:
    """Restore the builtin (test/bench teardown helper)."""
    _core.install_dispatch_kernel(None)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.kernels",
        description="Generate, verify, measure and persist event-core kernels.")
    parser.add_argument("--tune", action="store_true",
                        help="run the full generate/verify/measure pass and "
                             "write the receipts")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke)")
    parser.add_argument("--verify", action="store_true",
                        help="with --tune: require the fresh winners to "
                             "reproduce the recorded receipts; alone: "
                             "re-run the bitwise battery for the recorded "
                             "winners")
    parser.add_argument("--receipts", metavar="PATH", default=None,
                        help=f"receipts file (default {DEFAULT_RECEIPTS}, "
                             f"override with ${ENV_RECEIPTS})")
    parser.add_argument("--machines", default=",".join(PAPER_MACHINES),
                        help="comma-separated machine specs to tune for")
    parser.add_argument("--show", action="store_true",
                        help="print the current receipts and what activate() "
                             "would install")
    args = parser.parse_args(argv)
    machines = tuple(m for m in args.machines.split(",") if m)
    path = _receipts_path(args.receipts)

    if args.show:
        receipts = load_receipts(args.receipts)
        try:
            print(json.dumps(receipts, indent=2) if receipts else "no receipts")
            summary = activate(path=args.receipts)
            deactivate()
            print(f"activate(): {summary}")
        except BrokenPipeError:  # e.g. `--show | head`
            sys.stderr.close()
        return 0

    if not args.tune and not args.verify:
        parser.error("nothing to do: pass --tune and/or --verify (or --show)")

    if args.verify and not args.tune:
        receipts = load_receipts(args.receipts)
        stale = _staleness(receipts)
        if stale:
            print(f"receipts unusable: {stale}")
            return 1
        names = {receipts["default"]["dispatch"]} | {
            m["dispatch"] for m in receipts["machines"].values()}
        for name in sorted(names):
            verify_dispatch_variant(name)
            print(f"verified {name}: bitwise-identical")
        return 0

    prior = load_receipts(args.receipts)
    receipts = tune(quick=args.quick, machines=machines, log=print)
    if args.verify and prior is not None and _staleness(prior) is None:
        recorded = prior["default"]["dispatch"]
        fresh = receipts["default"]["dispatch"]
        if recorded != fresh:
            print("receipts do NOT reproduce:")
            print(f"  default dispatch: recorded {recorded}, fresh {fresh}")
            return 1
        print("receipts reproduce the recorded winner")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(receipts, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"receipts written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
