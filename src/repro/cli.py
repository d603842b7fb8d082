"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's figures/tables and run the extension
experiments without writing any Python:

    python -m repro selfish                 # Figures 4/5/6
    python -m repro memory   --trials 3     # Figures 7/8
    python -m repro npb      --trials 2     # Figures 9/10
    python -m repro irq-routing             # selective-routing extension
    python -m repro interference            # co-location extension
    python -m repro boot                    # show the measured boot chain
    python -m repro faults                  # fault-injection resilience campaign
    python -m repro cluster --nodes 2,4,8   # multi-node BSP scaling sweep

plus the correctness tooling from ``repro.analysis``:

    python -m repro lint                    # simlint static analysis
    python -m repro check-golden            # golden-corpus digest check
    python -m repro --sanitize <command>    # run with runtime invariant checks
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _jobs(args) -> int:
    """Resolve the --jobs flag (absent/None = one worker per core)."""
    from repro.exec import resolve_jobs

    return resolve_jobs(getattr(args, "jobs", 1))


def _cmd_selfish(args) -> int:
    from repro.core.experiments import run_selfish_profiles
    from repro.core.report import render_selfish

    profiles = run_selfish_profiles(
        duration_s=args.duration, threshold_us=args.threshold_us, seed=args.seed,
        jobs=_jobs(args),
    )
    for profile in profiles.values():
        print(render_selfish(profile))
        print()
    return 0


def _cmd_memory(args) -> int:
    from repro.core.experiments import PAPER_FIG8, run_fig7_fig8
    from repro.core.report import render_normalized_table, render_raw_table

    tables = run_fig7_fig8(trials=args.trials, seed=args.seed, jobs=_jobs(args))
    print(render_raw_table(tables, "Figure 8 (reproduced)", paper=PAPER_FIG8))
    print()
    print(render_normalized_table(tables, "Figure 7 (reproduced)", paper=PAPER_FIG8))
    return 0


def _cmd_npb(args) -> int:
    from repro.core.experiments import PAPER_FIG10, run_fig9_fig10
    from repro.core.report import render_normalized_table, render_raw_table

    tables = run_fig9_fig10(trials=args.trials, seed=args.seed, jobs=_jobs(args))
    print(render_raw_table(tables, "Figure 10 (reproduced)", paper=PAPER_FIG10))
    print()
    print(render_normalized_table(tables, "Figure 9 (reproduced)", paper=PAPER_FIG10))
    return 0


def _cmd_irq_routing(args) -> int:
    from repro.exec import ParallelRunner, SimJob

    modes = ("forwarded", "direct")
    sim_jobs = [
        SimJob.make("irq-latency", routing=mode, duration_s=args.duration, seed=args.seed)
        for mode in modes
    ]
    results = ParallelRunner(_jobs(args)).run_values(sim_jobs)
    print("device-IRQ delivery latency into the Login VM:")
    for mode, r in zip(modes, results):
        print(
            f"  {mode:>10s}: mean {r['mean_us']:.2f} us, max {r['max_us']:.2f} us "
            f"over {int(r['n'])} interrupts"
        )
    return 0


def _cmd_interference(args) -> int:
    from repro.exec import ParallelRunner, SimJob

    scheds, benches = ("kitten", "linux"), ("ep", "lu")
    sim_jobs = [
        SimJob.make(
            "interference", scheduler=sched, benchmark=bench,
            with_neighbor=with_neighbor, seed=args.seed,
        )
        for sched in scheds
        for bench in benches
        for with_neighbor in (False, True)
    ]
    merged = iter(ParallelRunner(_jobs(args)).run_values(sim_jobs))
    print("co-located tenant throughput (fraction of solo run; fair share 0.5):")
    for sched in scheds:
        row = [f"  {sched:>8s}:"]
        for bench in benches:
            alone, shared = next(merged)["metric"], next(merged)["metric"]
            row.append(f"{bench}={shared / alone:.3f}")
        print(" ".join(row))
    return 0


def _cmd_campaign(args) -> int:
    from repro.core.campaign import run_campaign, save_campaign, summarize

    results = run_campaign(
        seed=args.seed,
        trials=args.trials,
        include_extensions=not args.no_extensions,
        jobs=_jobs(args),
    )
    if args.output:
        save_campaign(results, args.output)
        print(f"wrote {args.output}")
    print(summarize(results))
    return 0


def _cmd_boot(args) -> int:
    from repro.core.configs import build_node, CONFIG_HAFNIUM_KITTEN

    node = build_node(CONFIG_HAFNIUM_KITTEN, seed=args.seed)
    chain = node.boot_chain
    print("measured boot chain:")
    for stage in chain.stages:
        print(f"  EL{stage.el}  {stage.name:10s} {stage.measurement[:32]}...")
    print(f"attestation quote: {chain.log.quote()}")
    print("partitions:")
    for vm in node.spm.vms.values():
        print(
            f"  VM {vm.vm_id} {vm.name:10s} {vm.role.value:15s} "
            f"{len(vm.vcpus)} vcpus  {vm.memory.size // 2**20:5d} MiB"
        )
    if args.sanitize:
        from repro.analysis.validators import validate_node

        checks = validate_node(node)
        print(f"sanitizer: {checks} model validators passed")
    return 0


def _cmd_lint(args) -> int:
    import repro
    from repro.analysis.simlint import lint_paths, summarize

    paths = args.paths or [os.path.dirname(os.path.abspath(repro.__file__))]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        # A typo'd path must not pass vacuously ("0 errors" over 0 files).
        for p in missing:
            print(f"repro lint: path does not exist: {p}", file=sys.stderr)
        return 2
    diags = lint_paths(paths)
    for d in diags:
        print(d.format())
    print(summarize(diags))
    return 1 if diags else 0


def _cmd_check_golden(args) -> int:
    from repro.analysis.golden import CORPUS, GOLDEN_PATH, check_golden

    jobs = _jobs(args)
    try:
        report = check_golden(jobs=jobs, update=args.update)
    except (OSError, ValueError) as exc:
        print(f"repro check-golden: cannot read {GOLDEN_PATH}: {exc}",
              file=sys.stderr)
        return 2
    for kind, entries in report.items():
        for key, old, new in entries:
            print(f"  {kind} {key}: {(old or '(none)')[:16]} -> "
                  f"{(new or '(none)')[:16]}")
    if args.update:
        print(f"wrote {GOLDEN_PATH}")
    elif any(report.values()):
        print("GOLDEN MISMATCH: a change that means to move simulated "
              "results reruns check-golden --update")
        return 1
    else:
        print(f"golden OK: {len(CORPUS)} cells match {GOLDEN_PATH.name}")
    return 0


def _cmd_faults(args) -> int:
    import json

    from repro.faults.campaign import (
        run_randomized_campaign,
        run_resilience,
        scenarios_for,
    )

    if args.randomized:
        report = run_randomized_campaign(
            config=args.configs or "hafnium-kitten",
            seed=args.seed,
            campaigns=args.randomized,
            count=args.faults_per_run,
            jobs=_jobs(args),
        )
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(report, fh, indent=2, default=str)
            print(f"wrote {args.output}")
        print(
            f"randomized campaign [{report['config']}]: "
            f"{report['campaigns']} seeds x {report['faults_per_run']} faults"
        )
        for s, r in report["runs"].items():
            mttf = r.get("mttf_ms")
            avail = r.get("availability")
            print(
                f"  seed {s}: survival={r['job_survival_rate']:.2f} "
                f"detections={r['detections']}/{r['faults_injected']} "
                f"restarts={r['restarts']} degraded={r['degraded']} "
                f"mttf={'-' if mttf is None else f'{mttf:.1f}ms'} "
                f"avail={'-' if avail is None else f'{avail:.4f}'}"
            )
        agg = report["aggregate"]
        print(
            f"aggregate: survival mean={agg['survival_mean']:.3f} "
            f"[{agg['survival_min']:.2f}, {agg['survival_max']:.2f}] "
            f"detection rate={agg['detection_rate']:.2f} "
            f"restarts={agg['restarts']}"
        )
        mttf = agg.get("mttf_ms")
        avail = agg.get("availability_mean")
        avail_min = agg.get("availability_min")
        print(
            f"           pooled MTTF={'-' if mttf is None else f'{mttf:.1f}ms'} "
            f"downtime={agg.get('downtime_ms', 0.0):.1f}ms "
            f"availability mean="
            f"{'-' if avail is None else f'{avail:.4f}'} "
            f"min={'-' if avail_min is None else f'{avail_min:.4f}'}"
        )
        return 0

    configs = args.configs.split(",") if args.configs else None
    scenarios = args.scenarios.split(",") if args.scenarios else None
    report = run_resilience(
        seed=args.seed,
        configs=configs,
        scenarios=scenarios,
        with_containment=not args.no_containment,
        jobs=_jobs(args),
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, default=str)
        print(f"wrote {args.output}")
    for config, rows in report["configs"].items():
        print(f"{config}:")
        for scenario, m in rows.items():
            lat = m["detection_latency_us"]
            rec = m["recovery_time_us"]
            print(
                f"  {scenario:20s} detected={str(m['detected']):5s} "
                f"latency={'-' if lat is None else f'{lat:.1f}us':>12s} "
                f"recovery={'-' if rec is None else f'{rec:.1f}us':>10s} "
                f"restarts={m['restarts']} degraded={str(m['degraded']):5s} "
                f"survival={m['job_survival_rate']:.2f}"
            )
    for config, c in report.get("containment", {}).items():
        verdict = "CONTAINED" if c["contained"] else "LEAKED"
        note = "" if c["strict_isolation_expected"] else " (not an invariant here)"
        print(
            f"containment [{config}]: {verdict} "
            f"(victim trace changed: {c['victim_trace_changed']}){note}"
        )
    # Only the Kitten-primary config promises bit-identical bystander
    # traces; a Linux-primary "leak" is the CFS coupling the paper's
    # architecture exists to remove, reported but not fatal.
    leaked = any(
        not c["contained"] and c["strict_isolation_expected"]
        for c in report.get("containment", {}).values()
    )
    return 1 if leaked else 0


def _cmd_cluster(args) -> int:
    import hashlib
    import json

    from repro.cluster.campaign import run_scaling
    from repro.core.configs import PAPER_LABELS

    configs = args.configs.split(",") if args.configs else None
    try:
        counts = [int(n) for n in str(args.nodes).split(",") if n.strip()]
    except ValueError as exc:
        print(f"repro cluster: {exc}", file=sys.stderr)
        return 2
    report = run_scaling(
        configs=configs,
        node_counts=counts,
        seed=args.seed,
        jobs=_jobs(args),
        supersteps=args.supersteps,
        step_compute_s=args.step_ms / 1000.0,
        fail_rank=args.fail_rank,
        fail_at_ms=args.fail_at_ms,
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, default=str)
        print(f"wrote {args.output}")
    base_n = report["node_counts"][0]
    print(
        f"BSP cluster scaling (supersteps={report['supersteps']}, "
        f"step={args.step_ms:g}ms compute, seed={args.seed:#x}):"
    )
    print(
        f"  {'config':<10s} {'nodes':>5s} {'mean-step':>10s} {'max-step':>10s} "
        f"{'vs-native':>9s} {'vs-n' + str(base_n):>7s} {'failed':>6s}"
    )
    for row in report["rows"]:
        label = PAPER_LABELS.get(row["config"], row["config"])
        slow = row["slowdown_vs_native"]
        amp = row["amplification"]
        failed = ",".join(str(r) for r in row["failed_ranks"]) or "-"
        print(
            f"  {label:<10s} {row['nodes']:>5d} "
            f"{row['mean_step_ms']:>8.3f}ms {row['max_step_ms']:>8.3f}ms "
            f"{'-' if slow is None else f'{slow:.3f}':>9s} "
            f"{'-' if amp is None else f'{amp:.3f}':>7s} {failed:>6s}"
        )
    # One digest over every cell's trace digest: the whole sweep is
    # bit-identical across --jobs levels iff this line is.
    h = hashlib.sha256()
    for key in sorted(report["cells"]):
        h.update(f"{key}={report['cells'][key]['digest']};".encode())
    print(f"report digest: {h.hexdigest()}")
    return 0


def _cmd_bench(args) -> int:
    from repro.exec.bench import (
        compare_bench,
        load_bench,
        run_bench,
        summarize_bench,
        write_bench,
    )

    baseline = None
    if args.compare:
        try:
            baseline = load_bench(args.compare)
        except (OSError, ValueError) as exc:
            print(f"repro bench: cannot load baseline: {exc}", file=sys.stderr)
            return 2
    results = run_bench(quick=args.quick, jobs=_jobs(args))
    path = write_bench(results, args.output or None)
    print(f"wrote {path}")
    print(summarize_bench(results))
    if baseline is not None:
        report, regressions = compare_bench(
            results, baseline, regress_pct=args.regress_pct
        )
        print(report)
        if regressions:
            print(
                f"bench: {len(regressions)} metric(s) regressed more than "
                f"{args.regress_pct:g}% vs {args.compare}",
                file=sys.stderr,
            )
            return 1
    return 0


def _add_jobs_flag(p) -> None:
    p.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes for independent simulation cells "
        "(default: all cores; 1 = fully in-process). Results are "
        "bit-identical at any level — only wall-clock changes.",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures and run extension experiments.",
    )
    parser.add_argument("--seed", type=int, default=0xC0FFEE)
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime invariant sanitizer (same as REPRO_SANITIZE=1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selfish", help="Figures 4/5/6 (selfish-detour)")
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--threshold-us", type=float, default=1.0)
    _add_jobs_flag(p)
    p.set_defaults(fn=_cmd_selfish)

    p = sub.add_parser("memory", help="Figures 7/8 (HPCG/STREAM/RandomAccess)")
    p.add_argument("--trials", type=int, default=3)
    _add_jobs_flag(p)
    p.set_defaults(fn=_cmd_memory)

    p = sub.add_parser("npb", help="Figures 9/10 (NAS parallel benchmarks)")
    p.add_argument("--trials", type=int, default=2)
    _add_jobs_flag(p)
    p.set_defaults(fn=_cmd_npb)

    p = sub.add_parser("irq-routing", help="selective-routing extension")
    p.add_argument("--duration", type=float, default=1.0)
    _add_jobs_flag(p)
    p.set_defaults(fn=_cmd_irq_routing)

    p = sub.add_parser("interference", help="co-location isolation extension")
    _add_jobs_flag(p)
    p.set_defaults(fn=_cmd_interference)

    p = sub.add_parser("boot", help="show the measured boot chain")
    p.set_defaults(fn=_cmd_boot)

    p = sub.add_parser(
        "campaign", help="run everything; optionally write a results JSON"
    )
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--output", "-o", type=str, default="")
    p.add_argument("--no-extensions", action="store_true")
    _add_jobs_flag(p)
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser(
        "lint", help="simlint: static determinism/invariant analysis"
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "check-golden",
        help="rerun the golden corpus and compare every cell's result "
        "digest with the committed GOLDEN.json",
    )
    p.add_argument(
        "--update", action="store_true",
        help="rewrite GOLDEN.json from this checkout (declares a model change)",
    )
    _add_jobs_flag(p)
    p.set_defaults(fn=_cmd_check_golden)

    p = sub.add_parser(
        "faults",
        help="resilience campaign: inject faults, report detection latency, "
        "recovery time, job survival, and containment",
    )
    p.add_argument(
        "--configs", type=str, default="",
        help="comma-separated configs (default: all three)",
    )
    p.add_argument(
        "--scenarios", type=str, default="",
        help="comma-separated scenarios (default: every applicable one)",
    )
    p.add_argument("--output", "-o", type=str, default="")
    p.add_argument(
        "--no-containment", action="store_true",
        help="skip the per-VM trace-digest containment check",
    )
    p.add_argument(
        "--randomized", type=int, default=0, metavar="N",
        help="run N randomized multi-fault campaigns (root seeds seed..seed+N-1) "
        "and aggregate per-seed survival rates",
    )
    p.add_argument(
        "--faults-per-run", type=int, default=3,
        help="faults drawn per randomized campaign (with --randomized)",
    )
    _add_jobs_flag(p)
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "cluster",
        help="multi-node BSP scaling sweep: step time, slowdown vs native, "
        "and noise amplification vs the smallest node count",
    )
    p.add_argument(
        "--nodes", type=str, default="2,4,8",
        help="comma-separated node counts to sweep (e.g. 2,4,8,16,32,64)",
    )
    p.add_argument(
        "--configs", type=str, default="",
        help="comma-separated configs (default: all three)",
    )
    p.add_argument("--supersteps", type=int, default=6)
    p.add_argument(
        "--step-ms", type=float, default=2.0,
        help="per-superstep compute phase per core (simulated ms)",
    )
    p.add_argument(
        "--fail-rank", type=int, default=None,
        help="inject a node-failure fault killing this rank mid-run",
    )
    p.add_argument(
        "--fail-at-ms", type=float, default=None,
        help="when to kill it (simulated ms after start; default 1.0)",
    )
    p.add_argument("--output", "-o", type=str, default="")
    _add_jobs_flag(p)
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser(
        "bench",
        help="performance benchmarks: engine events/sec, per-figure "
        "wall-clock, and --jobs speedup; writes BENCH_<date>.json",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="CI mode: smaller event counts, fig7/8 instead of the campaign",
    )
    p.add_argument(
        "--compare", type=str, default="",
        help="baseline BENCH_<date>.json to diff against; prints per-metric "
        "speedups and exits 1 past --regress-pct",
    )
    p.add_argument(
        "--regress-pct", type=float, default=25.0,
        help="regression threshold for --compare, in percent (default 25)",
    )
    p.add_argument("--output", "-o", type=str, default="")
    _add_jobs_flag(p)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.common.errors import ConfigurationError

    args = build_parser().parse_args(argv)
    if args.sanitize:
        # The env hook is what Machine reads, so one flag covers every
        # node built anywhere inside the command.
        os.environ["REPRO_SANITIZE"] = "1"
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        # Refused input (bad --jobs, trials, durations, names) is a usage
        # error: one line and exit 2, never a traceback.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
