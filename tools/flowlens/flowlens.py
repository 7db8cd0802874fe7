#!/usr/bin/env python3
"""flowlens: cross-artifact forensics for anyqos simulation runs.

Joins any subset of the run artifacts --

  --trace     flow trace CSV            (sim::FlowTracer)
  --spans     decision/attempt JSONL    (obs::DecisionTracer)
  --timeline  timeline JSONL            (obs::Timeline)
  --ops       ops directive log JSONL   (control::DirectiveLog)
  --kernel    kernel stats JSONL        (obs::KernelStats)

-- reconstructs per-flow causal chains (request -> attempts -> admit /
reject / shed -> failover / repair -> teardown) and hard-fails on
cross-artifact inconsistencies: a span whose flow never appears in the
trace, a shed flow that entered the offered stream anyway, a repaired
flow that was also counted dropped, a kernel fired-count that disagrees
with the engine's dispatched-event count, and a dozen structural checks
on each artifact in isolation.

Exit codes: 0 = consistent, 1 = at least one inconsistency, 2 = unusable
input (missing file, malformed row, or no artifacts given).

Stdlib only, deterministic output: suitable as a CI gate and for golden
fixture tests (see tests/tools/flowlens/).
"""

import argparse
import csv
import json
import sys

TRACE_HEADER = [
    "time", "kind", "flow", "source", "destination",
    "attempts", "bandwidth_bps", "active",
]

# Per-flow lifecycle kinds. Everything else in the trace (LINK_*, MEMBER_*,
# NODE_*, RECONVERGED) is topology-plane and carries no flow id. A FAILOVER
# is an entry: member churn drops the original flow and re-homes it under a
# fresh request id, so the re-homed flow's chain starts at FAILOVER. A
# REPAIRED flow keeps its id, so REPAIRED continues an existing chain.
TERMINAL_KINDS = {"DEPARTED", "DROPPED", "REPAIR_FAILED"}
CONTINUATION_KINDS = {"REPAIRED"}
ENTRY_KINDS = {"ADMITTED", "REJECTED", "SHED", "FAILOVER"}
LIFECYCLE_KINDS = ENTRY_KINDS | CONTINUATION_KINDS | TERMINAL_KINDS

KERNEL_SCHEMA = "anyqos-kernel-stats/1"


class InputError(Exception):
    """Unusable artifact: missing, truncated, or malformed."""


class Report:
    def __init__(self):
        self.violations = []

    def fail(self, check, message):
        self.violations.append("[%s] %s" % (check, message))


# ---------------------------------------------------------------------------
# parsers


def load_trace(path):
    """Returns (events, chains). events is the row list; chains maps
    flow id -> ordered list of lifecycle rows for that flow."""
    events = []
    chains = {}
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise InputError("trace: %s" % err)
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise InputError("trace: unexpected header %r" % (header,))
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(TRACE_HEADER):
                raise InputError("trace line %d: %d columns" % (lineno, len(row)))
            try:
                event = {
                    "line": lineno,
                    "time": float(row[0]),
                    "kind": row[1],
                    "flow": None if row[2] == "-" else int(row[2]),
                    "active": int(row[7]),
                }
            except ValueError as err:
                raise InputError("trace line %d: %s" % (lineno, err))
            events.append(event)
            if event["flow"] is not None and event["kind"] in LIFECYCLE_KINDS:
                chains.setdefault(event["flow"], []).append(event)
    return events, chains


def load_jsonl(path, label):
    rows = []
    try:
        handle = open(path)
    except OSError as err:
        raise InputError("%s: %s" % (label, err))
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append((lineno, json.loads(line)))
            except ValueError as err:
                raise InputError("%s line %d: %s" % (label, lineno, err))
    return rows


# ---------------------------------------------------------------------------
# single-artifact checks


def check_trace(events, chains, report):
    last_time = None
    for event in events:
        if last_time is not None and event["time"] < last_time:
            report.fail("trace-order",
                        "line %d: time %g before %g" %
                        (event["line"], event["time"], last_time))
        last_time = event["time"]
    for flow, chain in sorted(chains.items()):
        kinds = [e["kind"] for e in chain]
        first = kinds[0]
        if first not in ENTRY_KINDS:
            report.fail("chain-entry",
                        "flow %d: first lifecycle event is %s, not an entry "
                        "(line %d)" % (flow, first, chain[0]["line"]))
            continue
        if first in ("REJECTED", "SHED"):
            if len(kinds) > 1:
                report.fail("chain-%s" % first.lower(),
                            "flow %d: %s flow has %d further events "
                            "(first extra: %s at line %d)" %
                            (flow, first, len(kinds) - 1, kinds[1],
                             chain[1]["line"]))
            continue
        # Admitted-like flow: (ADMITTED|FAILOVER) REPAIRED* terminal?
        terminal_at = None
        for index, event in enumerate(chain[1:], start=1):
            kind = event["kind"]
            if terminal_at is not None:
                report.fail("chain-after-terminal",
                            "flow %d: %s at line %d follows terminal %s — "
                            "flow both %s and %s" %
                            (flow, kind, event["line"],
                             chain[terminal_at]["kind"], kind.lower(),
                             chain[terminal_at]["kind"].lower()))
                break
            if kind in TERMINAL_KINDS:
                terminal_at = index
            elif kind not in CONTINUATION_KINDS:
                report.fail("chain-kind",
                            "flow %d: unexpected %s at line %d after entry %s" %
                            (flow, kind, event["line"], first))


def check_spans(spans, report):
    """Returns (decisions, attempts) keyed by request id."""
    decisions = {}
    attempts = {}
    for lineno, row in spans:
        span = row.get("span")
        if span == "decision":
            required = ("request", "time", "admitted", "attempts")
        elif span == "attempt":
            required = ("request", "time", "admitted", "attempt")
        else:
            report.fail("span-kind", "line %d: unknown span %r" % (lineno, span))
            continue
        missing = [key for key in required if key not in row]
        if missing:
            report.fail("span-fields",
                        "line %d: %s span missing %s" %
                        (lineno, span, ",".join(missing)))
            continue
        target = decisions if span == "decision" else attempts
        target.setdefault(row["request"], []).append((lineno, row))
    for request, rows in sorted(attempts.items()):
        if request not in decisions:
            report.fail("attempt-orphan",
                        "request %d: %d attempt span(s) but no decision span "
                        "(first at line %d)" % (request, len(rows), rows[0][0]))
    for request, rows in sorted(decisions.items()):
        claimed = sum(row["attempts"] for _, row in rows)
        traced = len(attempts.get(request, []))
        if traced != claimed:
            report.fail("attempt-count",
                        "request %d: decision spans claim %d attempt(s) but "
                        "%d attempt span(s) recorded" %
                        (request, claimed, traced))
    return decisions, attempts


def check_timeline(rows, report):
    if not rows:
        raise InputError("timeline: empty file")
    lineno, header = rows[0]
    if header.get("timeline") != "header" or "columns" not in header:
        raise InputError("timeline line %d: expected header row" % lineno)
    width = len(header["columns"])
    last_t = None
    seen_measurement = False
    for lineno, row in rows[1:]:
        if row.get("timeline") != "sample":
            report.fail("timeline-kind",
                        "line %d: expected sample row, got %r" %
                        (lineno, row.get("timeline")))
            continue
        values = row.get("values", [])
        if len(values) != width:
            report.fail("timeline-width",
                        "line %d: %d values for %d columns" %
                        (lineno, len(values), width))
        t = row.get("t")
        if last_t is not None and not (isinstance(t, (int, float)) and t > last_t):
            report.fail("timeline-order",
                        "line %d: t=%r not after %r" % (lineno, t, last_t))
        if isinstance(t, (int, float)):
            last_t = t
        warmup = row.get("warmup", False)
        if seen_measurement and warmup:
            report.fail("timeline-warmup",
                        "line %d: warmup sample after measurement began" % lineno)
        seen_measurement = seen_measurement or not warmup
    return header


def check_ops(rows, report):
    last_t = None
    for lineno, row in rows:
        if "ops" not in row or "t" not in row:
            report.fail("ops-fields", "line %d: missing ops/t fields" % lineno)
            continue
        t = row["t"]
        if last_t is not None and t < last_t:
            report.fail("ops-order",
                        "line %d: t=%g before %g" % (lineno, t, last_t))
        last_t = t


def hist_consistent(hist, where, report):
    counts = hist.get("counts", [])
    bounds = hist.get("bounds", [])
    if len(counts) != len(bounds) + 1:
        report.fail("kernel-hist",
                    "%s: %d buckets for %d bounds" %
                    (where, len(counts), len(bounds)))
        return
    if sum(counts) != hist.get("count"):
        report.fail("kernel-hist",
                    "%s: bucket sum %d != count %s" %
                    (where, sum(counts), hist.get("count")))


def check_kernel(rows, report):
    """Returns the summary row (or None)."""
    if not rows:
        raise InputError("kernel: empty file")
    lineno, header = rows[0]
    if header.get("kernel") != "header" or header.get("schema") != KERNEL_SCHEMA:
        raise InputError("kernel line %d: expected %s header" %
                         (lineno, KERNEL_SCHEMA))
    categories = []
    summary = None
    for lineno, row in rows[1:]:
        kind = row.get("kernel")
        if kind == "category":
            categories.append((lineno, row))
        elif kind == "summary":
            summary = (lineno, row)
        else:
            report.fail("kernel-kind",
                        "line %d: unknown row kind %r" % (lineno, kind))
    if len(categories) != header.get("categories"):
        report.fail("kernel-categories",
                    "header promises %s categories, found %d" %
                    (header.get("categories"), len(categories)))
    totals = {"scheduled": 0, "fired": 0, "cancelled": 0, "pending": 0}
    for lineno, row in categories:
        name = row.get("name", "?")
        if row["scheduled"] != row["fired"] + row["cancelled"] + row["pending"]:
            report.fail("kernel-reconcile",
                        "category %s: scheduled %d != fired %d + cancelled %d "
                        "+ pending %d" %
                        (name, row["scheduled"], row["fired"],
                         row["cancelled"], row["pending"]))
        for key in totals:
            totals[key] += row[key]
        hist_consistent(row.get("horizon", {}), "category %s horizon" % name,
                        report)
        hist_consistent(row.get("wait", {}), "category %s wait" % name, report)
    if summary is None:
        report.fail("kernel-summary", "no summary row")
        return None
    _, srow = summary
    for key, value in totals.items():
        if srow.get(key) != value:
            report.fail("kernel-summary",
                        "summary %s %s != per-category sum %d" %
                        (key, srow.get(key), value))
    if srow.get("fired") != srow.get("dispatched"):
        report.fail("kernel-dispatch",
                    "kernel fired-count %s != engine dispatched-event count %s" %
                    (srow.get("fired"), srow.get("dispatched")))
    hist_consistent(srow.get("burst", {}), "summary burst", report)
    return srow


# ---------------------------------------------------------------------------
# cross-artifact checks


def check_trace_vs_spans(events, chains, decisions, attempts, report):
    # Failed failover re-admissions mint a request id that emits rejected
    # spans but never enters the trace (the original flow is what gets the
    # DROPPED row). They are recognizable: every span is rejected and sits
    # exactly at a fault instant.
    fault_instants = {e["time"] for e in events
                      if e["kind"] in ("MEMBER_DOWN", "NODE_DOWN", "LINK_DOWN")}

    def failover_rejection(request):
        rows = decisions.get(request, [])
        if not rows or any(row["admitted"] for _, row in rows):
            return False
        return all(row["time"] in fault_instants
                   for _, row in rows + attempts.get(request, []))

    span_requests = sorted(set(decisions) | set(attempts))
    for request in span_requests:
        if request not in chains and not failover_rejection(request):
            report.fail("span-unmatched",
                        "request %d has signaling spans but never appears in "
                        "the trace" % request)
    for request, rows in sorted(decisions.items()):
        chain = chains.get(request)
        if chain is None:
            continue  # already reported by span-unmatched
        kinds = {e["kind"] for e in chain}
        for lineno, row in rows:
            if row["admitted"] and not (kinds & {"ADMITTED", "FAILOVER",
                                                 "REPAIRED"}):
                report.fail("decision-admit",
                            "request %d: admitted decision span (line %d) but "
                            "trace records no admission-class event (%s)" %
                            (request, lineno, ",".join(sorted(kinds))))
            elif not row["admitted"] and row.get("algorithm") == "shed":
                if "SHED" not in kinds:
                    report.fail("shed-mismatch",
                                "request %d: shed decision span (line %d) but "
                                "trace records %s, not SHED" %
                                (request, lineno, ",".join(sorted(kinds))))
            elif not row["admitted"] and not (kinds & {"REJECTED", "DROPPED",
                                                       "REPAIR_FAILED"}):
                report.fail("decision-reject",
                            "request %d: rejected decision span (line %d) but "
                            "trace records no rejection-class event (%s)" %
                            (request, lineno, ",".join(sorted(kinds))))
    for flow, chain in sorted(chains.items()):
        kinds = [e["kind"] for e in chain]
        if kinds[0] == "SHED":
            # A shed request is rejected before the signaling walk: its only
            # legitimate span is the zero-attempt shed marker.
            if flow in attempts:
                report.fail("shed-offered",
                            "flow %d was SHED before admission but has %d "
                            "attempt span(s) — shed flow entered the offered "
                            "stream" % (flow, len(attempts[flow])))
            for lineno, row in decisions.get(flow, []):
                if (row.get("algorithm") != "shed" or row["admitted"]
                        or row["attempts"] != 0):
                    report.fail("shed-offered",
                                "flow %d was SHED but its decision span (line "
                                "%d) is not a zero-attempt shed marker" %
                                (flow, lineno))
        if flow not in decisions:
            report.fail("trace-unmatched",
                        "flow %d: trace records %s but no decision span" %
                        (flow, kinds[0]))


def summarize(chains, decisions, attempts, events, kernel_summary, out):
    def histogram(kinds):
        table = {}
        for kind in kinds:
            table[kind] = table.get(kind, 0) + 1
        return table

    out.write("flowlens: %d flow(s), %d decision span request(s), "
              "%d trace event(s)\n" %
              (len(chains), len(decisions), len(events)))
    outcomes = {}
    open_flows = 0
    for chain in chains.values():
        kinds = [e["kind"] for e in chain]
        if kinds[0] in ("REJECTED", "SHED"):
            outcomes[kinds[0]] = outcomes.get(kinds[0], 0) + 1
        elif kinds[-1] in TERMINAL_KINDS:
            outcomes[kinds[-1]] = outcomes.get(kinds[-1], 0) + 1
        else:
            open_flows += 1
    for kind in sorted(outcomes):
        out.write("  outcome %-13s %d\n" % (kind, outcomes[kind]))
    if open_flows:
        out.write("  outcome %-13s %d\n" % ("(open at end)", open_flows))
    classes = histogram(e["kind"] for e in events)
    for kind in sorted(classes):
        out.write("  event   %-13s %d\n" % (kind, classes[kind]))
    repairs = sum(1 for c in chains.values()
                  for e in c if e["kind"] == "REPAIRED")
    failovers = sum(1 for c in chains.values()
                    for e in c if e["kind"] == "FAILOVER")
    if repairs or failovers:
        out.write("  continuations: %d failover(s), %d repair(s)\n" %
                  (failovers, repairs))
    if kernel_summary is not None:
        out.write("  kernel: %d scheduled, %d fired, %d cancelled, "
                  "%d pending, hwm %d\n" %
                  (kernel_summary.get("scheduled", 0),
                   kernel_summary.get("fired", 0),
                   kernel_summary.get("cancelled", 0),
                   kernel_summary.get("pending", 0),
                   kernel_summary.get("queue_depth_hwm", 0)))


def print_chains(chains, attempts, count, out):
    for flow in sorted(chains)[:count]:
        chain = chains[flow]
        steps = ["%s@%g" % (e["kind"], e["time"]) for e in chain]
        tries = len(attempts.get(flow, []))
        prefix = "%d attempt(s) -> " % tries if tries else ""
        out.write("  flow %-6d %s%s\n" % (flow, prefix, " -> ".join(steps)))


def main(argv):
    parser = argparse.ArgumentParser(
        prog="flowlens", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--trace", help="flow trace CSV")
    parser.add_argument("--spans", help="decision/attempt span JSONL")
    parser.add_argument("--timeline", help="timeline JSONL")
    parser.add_argument("--ops", help="ops directive log JSONL")
    parser.add_argument("--kernel", help="kernel stats JSONL")
    parser.add_argument("--chains", type=int, default=0, metavar="N",
                        help="print the first N reconstructed flow chains")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary; print violations only")
    args = parser.parse_args(argv)

    if not any((args.trace, args.spans, args.timeline, args.ops, args.kernel)):
        print("flowlens: no artifacts given (need at least one of --trace, "
              "--spans, --timeline, --ops, --kernel)", file=sys.stderr)
        return 2

    report = Report()
    events, chains = [], {}
    decisions, attempts = {}, {}
    kernel_summary = None
    try:
        if args.trace:
            events, chains = load_trace(args.trace)
            check_trace(events, chains, report)
        if args.spans:
            decisions, attempts = check_spans(
                load_jsonl(args.spans, "spans"), report)
        if args.timeline:
            check_timeline(load_jsonl(args.timeline, "timeline"), report)
        if args.ops:
            check_ops(load_jsonl(args.ops, "ops"), report)
        if args.kernel:
            kernel_summary = check_kernel(
                load_jsonl(args.kernel, "kernel"), report)
    except InputError as err:
        print("flowlens: %s" % err, file=sys.stderr)
        return 2

    if args.trace and args.spans:
        check_trace_vs_spans(events, chains, decisions, attempts, report)

    if not args.quiet:
        summarize(chains, decisions, attempts, events, kernel_summary,
                  sys.stdout)
        if args.chains:
            print_chains(chains, attempts, args.chains, sys.stdout)

    for violation in report.violations:
        print("flowlens: FAIL %s" % violation, file=sys.stderr)
    if report.violations:
        print("flowlens: %d inconsistency(ies)" % len(report.violations),
              file=sys.stderr)
        return 1
    if not args.quiet:
        print("flowlens: consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
