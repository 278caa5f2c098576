"""``serve_g3``: an open loop of forecast requests into the scheduler.

Requests are due at ``RATE`` per second, one at a seeded uniform
offset within each ``1/RATE`` slot of the window, and are submitted on
time whatever the service is doing; latency runs from each request's
due time to its resolution.  (Poisson arrivals clump differently for
every seed, and over the ~50 requests of a 25 s run at 2 req/s that
alone moved the latency percentiles by ~30% between seeds.)  The mix is
stratified so every seed sends the same shares: ``MIX-ML`` for
``ML_SHARE`` of the distinct requests (else ``DP-PHY``),
``ensemble_size`` 2 for ``ENS2_SHARE`` (else 1), the two legacy
scenarios half each, and ``REPEAT_SHARE`` of all requests repeating an
earlier request due at least ``REPEAT_MIN_AGE_S`` before (cache hits).
Every request is G3 L8, 12 steps; request seeds are drawn from
``0 .. SEED_RANGE-1``.

Before the loop the scheduler serves one request of every scenario,
scheme and ensemble size (seeds outside that range, so no loop request
hits the cache through them): a service that has run for a while has
built its shared ML nets and probed its batchers, and a run that left
this to its first requests measured their start-up, not the service,
in its latency and step-time tails.  The scheduler's counters are read
as differences from the end of the warm-up.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench import layers
from perfbench.metrics import mean, pct, ratio
from perfbench.tracing import CallTracer, SpanIndex, Target, reconcile
from perfbench.workloads import (
    SETUP_BEFORE,
    Outcome,
    dt_dyn,
    overhead,
    peak_rss_mb,
    per_layer_values,
    timed,
)

#: Requests per second.  A closed loop over this mix (2 workers, 2 CPUs,
#: 8 requests kept in flight) saturates at ~5.2 req/s, so 3 req/s is
#: ~58% load: requests queue behind each other without a growing backlog.
RATE = 3.0
WORKERS = 2
SLO_S = 2.0             # latency limit of serve.slo_attainment
LEVEL, NLEV, STEPS = 3, 8, 12
ML_SHARE = 0.35
ENS2_SHARE = 0.25
REPEAT_SHARE = 0.20
REPEAT_MIN_AGE_S = 3.0
SEED_RANGE = 40
#: How long the drain after the last submission may take.
DRAIN_TIMEOUT_S = 90.0
#: Untraced/traced pairs of the overhead calibration.
CALIBRATION_PAIRS = 4


def generate(seed: int, seconds: float):
    """The seeded schedule: ``(due offsets in s, ForecastRequest list)``."""
    from repro.serve.request import ForecastRequest

    rng = np.random.default_rng([seed, 0x5E2E])
    n = max(4, int(round(RATE * seconds)))
    dues = (np.arange(n) + rng.uniform(0.0, 1.0, n)) * (seconds / n)
    eligible = [i for i in range(n) if dues[i] >= dues[0] + REPEAT_MIN_AGE_S]
    n_rep = min(int(round(REPEAT_SHARE * n)), len(eligible))
    repeats = set(int(i) for i in rng.choice(eligible, n_rep, replace=False)) \
        if n_rep else set()
    originals = [i for i in range(n) if i not in repeats]
    m = len(originals)

    # Scheme and ensemble size are stratified jointly: the few MIX-ML
    # two-member requests set the latency tail, so their count is fixed.
    n_ml, n_e2 = int(round(ML_SHARE * m)), int(round(ENS2_SHARE * m))
    n_ml_e2 = int(round(ML_SHARE * ENS2_SHARE * m))
    kinds = (
        [("MIX-ML", 2)] * n_ml_e2 + [("MIX-ML", 1)] * (n_ml - n_ml_e2)
        + [("DP-PHY", 2)] * (n_e2 - n_ml_e2)
        + [("DP-PHY", 1)] * (m - n_ml - n_e2 + n_ml_e2)
    )
    rng.shuffle(kinds)
    scenarios = ["tropical"] * (m // 2) + ["baroclinic"] * (m - m // 2)
    rng.shuffle(scenarios)
    fields: dict[int, dict] = {}
    used = set()
    for k, i in enumerate(originals):
        while True:
            f = dict(level=LEVEL, nlev=NLEV, steps=STEPS,
                     scenario=scenarios[k], scheme=kinds[k][0],
                     ensemble_size=kinds[k][1],
                     seed=int(rng.integers(0, SEED_RANGE)))
            key = tuple(sorted(f.items()))
            if key not in used:
                used.add(key)
                break
        fields[i] = f
    for i in sorted(repeats):
        earlier = [j for j in originals if dues[j] <= dues[i] - REPEAT_MIN_AGE_S]
        fields[i] = fields[int(rng.choice(earlier))]
    # One request object per submission, so a repeat is equal to its
    # original but never the same object.
    return dues, [ForecastRequest(**fields[i]) for i in range(n)]


def warm_up(sched) -> None:
    """Serve one request of every scenario, scheme and ensemble size."""
    from repro.serve.request import ForecastRequest

    kinds = [(sc, scheme, ens) for sc in ("tropical", "baroclinic")
             for scheme in ("DP-PHY", "MIX-ML") for ens in (1, 2)]
    jobs = [
        sched.submit(ForecastRequest(
            level=LEVEL, nlev=NLEV, steps=STEPS, scenario=sc, scheme=scheme,
            ensemble_size=ens, seed=SEED_RANGE + k))
        for k, (sc, scheme, ens) in enumerate(kinds)
    ]
    for job in jobs:
        res = job.result(timeout=DRAIN_TIMEOUT_S)
        if not res.ok:
            raise RuntimeError(f"warm-up request failed: {res.error}")


def stats_since(now: dict, base: dict) -> dict:
    """``now`` with every count made a difference from ``base``."""
    out = {}
    for key, value in now.items():
        old = base.get(key)
        if isinstance(value, dict):
            out[key] = stats_since(value, old if isinstance(old, dict) else {})
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - (old or 0)
        else:
            out[key] = value
    return out


def _sim_seconds(request) -> float:
    return request.steps * request.ensemble_size * dt_dyn(
        request.level, request.nlev)


def cold_start(request):
    """A fresh scheduler serving its first request: the set-up cost a
    new service instance pays before its first forecast."""
    from repro.serve.scheduler import ForecastScheduler

    with ForecastScheduler(max_workers=WORKERS) as sched:
        res = sched.submit(request).result(timeout=DRAIN_TIMEOUT_S)
    if not res.ok:
        raise RuntimeError(f"cold-start request failed: {res.error}")
    return res


def calibrate_overhead(targets: tuple) -> float:
    """Traced against untraced wall time of one served request's model
    run (G3 L8 DP-PHY, 12 steps) on a private model, in alternating
    pairs."""
    from repro.ensemble.scenarios import build_scenario_model, get_scenario

    model = build_scenario_model("tropical", LEVEL, NLEV, "DP-PHY")
    sc = get_scenario("tropical")
    tracer = CallTracer()
    walls: dict[bool, list] = {False: [], True: []}
    model.run(sc.member_state(model.mesh, model.vcoord, 0, 0), STEPS)  # warm-up
    for _ in range(CALIBRATION_PAIRS):
        for traced in (False, True):
            model.reset()
            state = sc.member_state(model.mesh, model.vcoord, 0, 0)
            if traced:
                tracer.install(targets)
            t0 = time.perf_counter()
            try:
                model.run(state, STEPS)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(time.perf_counter() - t0)
    return overhead(walls[True], walls[False])


def serve_g3(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.serve.request import ForecastRequest
    from repro.serve.scheduler import ForecastScheduler, run_serial_oracle

    dues, requests = generate(seed, seconds)
    rid_of = {id(r): i for i, r in enumerate(requests)}
    cold = ForecastRequest(level=LEVEL, nlev=NLEV, steps=STEPS,
                           scenario="tropical", scheme="DP-PHY",
                           seed=seed % SEED_RANGE)
    # Cold starts are timed before the loop and as many again after the
    # drain, so the samples straddle the window; setup_s is their median.
    setup_times = [timed(lambda: cold_start(cold))[0]
                   for _ in range(1 if trace else SETUP_BEFORE)]
    tracer = None
    targets = layers.dycore_targets() + layers.MODEL + layers.ML + layers.SERVE
    if trace:
        trace_overhead = calibrate_overhead(targets)
        tracer = CallTracer()
        # Tag each worker thread's spans with the request it serves: the
        # scheduler's first act on a job is ``request.cache_key()``.
        marker = Target(
            "repro.serve.request:ForecastRequest.cache_key", None,
            on_call=lambda args: tracer.set_request(rid_of.get(id(args[0]))),
        )

    sched = ForecastScheduler(max_workers=WORKERS)
    jobs, late = [], []
    problems: list = []
    try:
        # The tracer goes in before the warm-up: the batchers keep the
        # bound predict methods of the nets the warm-up builds.
        if tracer is not None:
            tracer.install(targets + (marker,))
        warm_up(sched)
        base = sched.stats()
        if tracer is not None:
            del tracer.spans[:]
        origin = time.perf_counter() + 0.05
        for due, req in zip(dues, requests):
            wait = origin + due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            jobs.append(sched.submit(req))
            late.append(time.perf_counter() - (origin + due))
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        results = []
        for job in jobs:
            try:
                results.append(job.result(
                    timeout=max(0.0, deadline - time.perf_counter())))
            except Exception as exc:
                results.append(None)
                problems.append(
                    f"request {job.id} did not resolve: {type(exc).__name__}: {exc}")
        stats = stats_since(sched.stats(), base)
    finally:
        if tracer is not None:
            tracer.uninstall()
        sched.shutdown(wait=True)

    n = len(requests)
    ok = [r is not None and r.ok for r in results]
    failed = n - sum(ok)
    # An unresolved request counts as resolved now (it has failed anyway).
    now = time.perf_counter()
    done_at = [j.finished_at if j.finished_at is not None else now for j in jobs]
    window = max(done_at) - origin
    latency = [t - (origin + d) for t, d in zip(done_at, dues)]
    problems += check_results(jobs, results, stats, n, run_serial_oracle, seed)
    out = Outcome(values={}, attempted=n,
                  failed=n if problems else failed, problems=problems,
                  tracer=tracer)
    executed = [r for r in results if r is not None and r.ok and not r.cache_hit]
    run_ms_per_step = [
        1e3 * r.wall_seconds / (r.request.steps * r.request.ensemble_size)
        for r in executed
    ]
    out.notes.append(
        f"{n} requests over {seconds:g} s ({RATE:g}/s), {len(executed)} "
        f"executed, {stats['cache_hits']} cache hits, {failed} failed; "
        f"window {window:.2f} s"
    )
    if not trace:
        setup_times += [timed(lambda: cold_start(cold))[0]
                        for _ in range(SETUP_BEFORE)]
        out.values = {
            "sdpd": ratio(sum(_sim_seconds(r.request) for r in executed),
                          sum(r.wall_seconds for r in executed)),
            "step_ms_p50": pct(run_ms_per_step, 50),
            "step_ms_p90": pct(run_ms_per_step, 90),
            "latency_p50_s": pct(latency, 50),
            "latency_p90_s": pct(latency, 90),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        return out

    from repro.dycore.stencil import default_backend

    idx = SpanIndex(tracer.spans)
    # Each request: parent [submitted, resolved]; children are its queue
    # wait plus the top-level spans its worker thread recorded for it.
    by_rid: dict[int, list] = {}
    for s in tracer.spans:
        if s.parent is None and s.rid is not None:
            by_rid.setdefault(s.rid, []).append(s)
    pairs, extra = [], []
    for i, job in enumerate(jobs):
        if job.finished_at is None or job.started_at is None:
            continue
        wait = job.started_at - job.submitted_at
        covered = wait + sum(s.dur for s in by_rid.get(i, ()))
        pairs.append((job.finished_at - job.submitted_at, covered))
        extra.append({"name": "serve.request",
                      "t0": job.submitted_at, "t1": job.finished_at,
                      "args": {"rid": i, "scheme": job.request.scheme,
                               "cache_hit": results[i] is not None
                               and results[i].cache_hit}})
        extra.append({"name": "serve.queue_wait",
                      "t0": job.submitted_at, "t1": job.started_at,
                      "args": {"rid": i}})
    spans_rec = layers.span_reconciliation(idx)
    spans_rec["serve.request"] = pairs
    out.reconciliation = reconcile(spans_rec)
    out.extra_events = extra
    runs = idx.named("model.run")
    pool, cache = stats["pool"], stats["cache"]
    batchers = [b for per_key in pool["batchers"].values()
                for b in per_key.values()]
    items = sum(b["items"] for b in batchers)
    req_row = next(r for r in out.reconciliation if r["parent"] == "serve.request")
    measured = {
        **layers.dycore_metrics(idx, default_backend()),
        **layers.model_metrics(idx),
        "serve.queue_wait_ms_p50": 1e3 * pct(
            [j.started_at - j.submitted_at for j in jobs
             if j.started_at is not None], 50),
        "serve.pool.acquire_ms_p50": 1e3 * pct(
            [s.dur for s in idx.named("serve.pool.acquire")], 50),
        "serve.pool.build_ms": 1e3 * mean(
            [s.dur for s in idx.named("serve.pool.build")]),
        "serve.pool.reuse_ratio": ratio(
            pool["reused"], pool["built"] + pool["reused"]),
        "serve.pool.evictions": pool["evicted"],
        "serve.cache.hit_ratio": ratio(
            cache["hits"], cache["hits"] + cache["misses"]),
        "serve.model_run_ms_per_step": 1e3 * ratio(
            sum(s.dur for s in runs), sum(s.value or 0 for s in runs)),
        "serve.reset_ms": 1e3 * mean([s.dur for s in idx.named("model.reset")]),
        "serve.batcher.mean_batch_size": ratio(
            items, sum(b["batches"] for b in batchers)),
        "serve.batcher.stacked_fraction": ratio(
            sum(b["stacked_items"] for b in batchers), items),
        "serve.worker_busy_fraction": ratio(
            sum(s.dur for s in runs), window * WORKERS),
        "serve.generator_late_ms_max": 1e3 * max(late),
        "serve.request.coverage": req_row["coverage"],
        "serve.request.unattributed_ms": req_row["unattributed_ms"],
        "serve.slo_attainment": ratio(
            sum(1 for ok_, lat in zip(ok, latency) if ok_ and lat <= SLO_S), n),
        "obs.trace_overhead_frac": trace_overhead,
        "obs.reconcile_flagged": sum(r["flagged"] for r in out.reconciliation),
    }
    out.values = per_layer_values(measured)
    return out


def check_results(jobs, results, stats, n, oracle, seed) -> list[str]:
    """Exactly-once resolution, byte-identical repeats and cache hits,
    and one sampled request per scheme bitwise equal to the oracle."""
    problems = []
    resolved = stats["completed"] + stats["errors"] + stats["cancellations"]
    if stats["submitted"] != n or resolved != n or stats["in_flight"] != 0:
        problems.append(
            f"resolution accounting: submitted {stats['submitted']}, "
            f"resolved {resolved}, in flight {stats['in_flight']}, sent {n}"
        )
    if len({j.id for j in jobs}) != n:
        problems.append("job ids are not distinct")
    digests: dict[str, set] = {}
    for r in results:
        if r is not None and r.ok:
            digests.setdefault(r.key, set()).add(r.digest())
    split = [k for k, d in digests.items() if len(d) > 1]
    if split:
        problems.append(f"{len(split)} repeated keys resolved to different bytes")
    rng = np.random.default_rng([seed, 0x0AC1E])
    for scheme in sorted({r.request.scheme for r in results if r is not None}):
        executed = [r for r in results if r is not None and r.ok
                    and not r.cache_hit and r.request.scheme == scheme]
        if not executed:
            continue
        sample = executed[int(rng.integers(len(executed)))]
        if oracle(sample.request).digest() != sample.digest():
            problems.append(
                f"{scheme} request {sample.key[:12]} differs from "
                "run_serial_oracle")
    return problems


