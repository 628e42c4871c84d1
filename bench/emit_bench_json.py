#!/usr/bin/env python3
"""Reduce raw benchmark output to the BENCH_*.json scorecards.

Usage: emit_bench_json.py <benchmark_out.json> [BENCH_micro.json]
       emit_bench_json.py --load <loadgen_out.json> <BENCH_*.json>
       emit_bench_json.py --attack <redteam_campaign_out.json> [BENCH_attack.json]

Micro mode: the CI bench-smoke job runs micro_inference with
--benchmark_out and feeds the raw google-benchmark dump through this
script, which keeps only the items-per-second series the project tracks
release over release: exact inference, faulty inference at
er = 0 / 10% / 50%, the PRNG additive-noise baseline, and the raw dot()
kernels the span-level arithmetic API added.

Load mode (--load): reduces a bench/loadgen report (schema: DESIGN.md
§11) to one scorecard (BENCH_serve.json, BENCH_net.json, ...): every
phase's figures plus shed/reject/throttle fractions, the accounting gate,
the determinism probe's score_hash and the reactor's send() calls per
reply frame. The headline is GOODPUT, requests scored within their
deadline per second: past saturation a server can stay "busy" scoring
requests whose deadlines already passed. Stdlib only.

Attack mode (--attack): reduces a redteam_campaign JSON report to the
BENCH_attack.json scorecard — the evasion-transfer vs. epoch-period
series measured over the wire (the moving-target headline: shorter epochs
buy lower transfer), the query-budget and label-rule series, the
cross-device fleet row, and three gates: cross-transport bit parity
(every cell's in-process and over-the-wire campaigns produced identical
decision hashes), wire accounting (every campaign query scored exactly
once, decision-only), and the epoch trend.
"""

import json
import sys

# BENCH_micro.json key -> benchmark name in the raw dump.
SERIES = {
    "inference_exact": "BM_InferenceExact",
    "inference_faulty_er0": "BM_InferenceFaulty/0",
    "inference_faulty_er10": "BM_InferenceFaulty/10",
    "inference_faulty_er50": "BM_InferenceFaulty/50",
    "inference_noise_prng": "BM_InferenceNoisePrng",
    "dot_exact": "BM_DotExact",
    "dot_faulty_skipahead_er0": "BM_DotFaultySkipAhead/0",
    "dot_faulty_skipahead_er1": "BM_DotFaultySkipAhead/10",
    "dot_faulty_skipahead_er5": "BM_DotFaultySkipAhead/50",
    "dot_faulty_scalar_er1": "BM_DotFaultyScalar/10",
    "dot_faulty_scalar_er5": "BM_DotFaultyScalar/50",
    "dot_portable": "BM_DotPortable",
    "dot_avx2": "BM_DotAvx2",
    "gemm_kernel_portable_rows16": "BM_GemmKernelPortable/16",
    "gemm_kernel_avx2_rows16": "BM_GemmKernelAvx2/16",
    "forward_batch_exact_rows1": "BM_ForwardBatchExact/1",
    "forward_batch_exact_rows16": "BM_ForwardBatchExact/16",
    "forward_batch_faulty_rows16": "BM_ForwardBatchFaulty/16",
}

# Series that legitimately vanish on hosts without the ISA (the bench
# reports error_occurred via SkipWithError): absent -> recorded as null,
# not a CI failure. Everything else missing is still an error.
OPTIONAL_SERIES = {"dot_avx2", "gemm_kernel_avx2_rows16"}


def emit_load(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as f:
        raw = json.load(f)

    phases = {}
    for name, p in raw["phases"].items():
        # Everything the driver reported but the server block, which is
        # folded into the fractions and the three casualty counts below.
        card = {k: v for k, v in p.items() if k != "server"}
        offered = p["sent"] + p["client_shed"]
        for bucket in ("shed", "rejected", "throttled"):
            count = p[bucket] + (p["client_shed"] if bucket == "shed" else 0)
            card[f"{bucket}_fraction"] = count / offered if offered else 0.0
        for key in ("evicted", "scored_late", "epoch_swaps"):
            card[key] = p["server"][key]
        phases[name] = card
    totals = raw["totals"]
    scorecard = {
        "phases": phases,
        # The headline serving metric: useful work per second past
        # saturation (in-process open loop, when it ran).
        "goodput_rps": phases.get("inproc_open", {}).get("goodput_rps"),
        # Every phase's client tally matched the server's counter deltas
        # bucket for bucket, and nothing failed or stayed in flight.
        "accounting_ok": bool(totals["accounting_ok"]),
        # FNV-1a over the score bits of the fixed-seed probe; CI compares
        # it across batch size, policy, kernel dispatch and build.
        "score_hash": totals["score_hash"],
        # send() calls per reply frame (self-hosted wire runs; else None).
        "write_calls_per_frame": totals["write_calls_per_frame"],
        "epoch_swaps": totals["epoch_swaps"],
        "config": raw["config"],
    }

    with open(argv[1], "w", encoding="utf-8") as f:
        json.dump(scorecard, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"emit_bench_json: wrote load scorecard to {argv[1]}")
    return 0


def emit_attack(argv):
    if len(argv) < 1 or len(argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    raw_path = argv[0]
    out_path = argv[1] if len(argv) == 2 else "BENCH_attack.json"

    with open(raw_path, encoding="utf-8") as f:
        raw = json.load(f)

    cells = raw.get("cells", [])
    if not cells:
        print("emit_bench_json: no cells in attack report", file=sys.stderr)
        return 1

    def is_base(c):
        return c.get("label_rule") == "single" and c.get("query_budget", 0) == 0

    def series_point(c, key):
        wire, inproc = c.get("wire", {}), c.get("inproc", {})
        return {
            key: c.get(key),
            "wire_transfer_rate": wire.get("transfer_rate"),
            "inproc_transfer_rate": inproc.get("transfer_rate"),
            "re_effectiveness": wire.get("re_effectiveness"),
            "queries_used": wire.get("queries_used"),
            "epochs_rolled": wire.get("epochs_rolled"),
            "parity_ok": bool(c.get("parity_ok")),
        }

    # The headline series: transfer over the wire as the defender's epoch
    # clock tightens (base label rule, unlimited budget).
    epoch_series = sorted(
        (series_point(c, "epoch_period_queries") for c in cells if is_base(c)),
        key=lambda p: p["epoch_period_queries"],
        reverse=True,
    )
    budget_series = sorted(
        (
            series_point(c, "query_budget")
            for c in cells
            if c.get("label_rule") == "single" and c.get("query_budget", 0) > 0
            and c.get("epoch_period_queries", 0) == 0
        ),
        key=lambda p: p["query_budget"],
    )
    rule_series = [
        dict(series_point(c, "label_rule"), repeat_queries=c.get("repeat_queries"))
        for c in cells
        if c.get("epoch_period_queries", 0) == 0 and c.get("query_budget", 0) == 0
    ]

    # Trend gate: the static victim (period 0 sorts first) must transfer at
    # least as much as the fastest-rolling one, modulo a small-sample
    # slack. Only checkable when the sweep actually ran (self-hosted mode;
    # the --connect smoke has a single cell and passes vacuously).
    trend_ok = True
    statics = [p for p in epoch_series if p["epoch_period_queries"] == 0]
    rolling = [p for p in epoch_series if p["epoch_period_queries"] > 0]
    if statics and rolling:
        fastest = min(rolling, key=lambda p: p["epoch_period_queries"])
        trend_ok = fastest["wire_transfer_rate"] <= statics[0]["wire_transfer_rate"] + 0.05

    totals = raw.get("totals", {})
    fleet = raw.get("fleet", {})
    members = fleet.get("members", [])
    rates = [m.get("transfer_rate", 0.0) for m in members if not m.get("frozen")]
    scorecard = {
        "epoch_transfer_series": epoch_series,
        "budget_series": budget_series,
        "label_rule_series": rule_series,
        "fleet": {
            "devices": fleet.get("devices", 0),
            "crafted_evasive": fleet.get("crafted_evasive", 0),
            "transfer_rate_min": min(rates) if rates else None,
            "transfer_rate_max": max(rates) if rates else None,
            "members": members,
        },
        # Cross-transport bit parity: for every cell the in-process replica
        # and the over-the-wire campaign observed identical decisions
        # (equal FNV-1a hashes). This is the subsystem's core promise.
        "parity_ok": bool(totals.get("parity_ok")),
        # Wire accounting: queries == scored == decision-only verdicts per
        # served instance; nothing shed, failed, or in flight.
        "accounting_ok": bool(totals.get("accounting_ok")),
        "trend_ok": trend_ok,
        "config": raw.get("config", {}),
    }
    ok = scorecard["parity_ok"] and scorecard["accounting_ok"] and trend_ok

    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(scorecard, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"emit_bench_json: wrote attack scorecard to {out_path}")
    if not ok:
        print("emit_bench_json: attack gates failed "
              f"(parity_ok={scorecard['parity_ok']} "
              f"accounting_ok={scorecard['accounting_ok']} trend_ok={trend_ok})",
              file=sys.stderr)
        return 1
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--load":
        return emit_load(argv[2:])
    if len(argv) >= 2 and argv[1] == "--attack":
        return emit_attack(argv[2:])
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    raw_path = argv[1]
    out_path = argv[2] if len(argv) == 3 else "BENCH_micro.json"

    with open(raw_path, encoding="utf-8") as f:
        raw = json.load(f)

    by_name = {b.get("name"): b for b in raw.get("benchmarks", [])}
    items_per_second = {}
    missing = []
    for key, bench_name in SERIES.items():
        bench = by_name.get(bench_name)
        if bench is None or "items_per_second" not in bench:
            if key in OPTIONAL_SERIES:
                items_per_second[key] = None
                continue
            missing.append(bench_name)
            continue
        items_per_second[key] = bench["items_per_second"]

    if missing:
        print(f"emit_bench_json: missing series: {', '.join(missing)}", file=sys.stderr)
        return 1

    context = raw.get("context", {})
    scorecard = {
        "unit": "items_per_second (MAC products/s)",
        "items_per_second": items_per_second,
        "speedup_dot_skipahead_vs_scalar_er1": (
            items_per_second["dot_faulty_skipahead_er1"] / items_per_second["dot_faulty_scalar_er1"]
            if items_per_second.get("dot_faulty_scalar_er1")
            else None
        ),
        # Lane-blocked kernel vs the portable lane-blocked reference —
        # the honest SIMD win, same summation order on both sides.
        "speedup_dot_avx2_vs_portable": (
            items_per_second["dot_avx2"] / items_per_second["dot_portable"]
            if items_per_second.get("dot_avx2") and items_per_second.get("dot_portable")
            else None
        ),
        # How far the live fault stream at er = 5% sits above the exact
        # SIMD path (slowdown factor, exact / faulty; honest, not a goal
        # metric — the per-fault RNG work is irreducible).
        "slowdown_dot_faulty_er5_vs_exact": (
            items_per_second["dot_exact"] / items_per_second["dot_faulty_skipahead_er5"]
            if items_per_second.get("dot_faulty_skipahead_er5")
            else None
        ),
        "context": {
            "date": context.get("date"),
            "host_name": context.get("host_name"),
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "library_build_type": context.get("library_build_type"),
        },
    }

    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(scorecard, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"emit_bench_json: wrote {len(items_per_second)} series to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
