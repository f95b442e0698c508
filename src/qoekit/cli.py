"""Command-line front end.

Subcommands: ``ahp elicit``, ``ahp weights``, ``mos``, ``trace gen``,
``trace analyze``, ``models list``.  Every command is deterministic given
its inputs (randomness is always seeded), report files are written
atomically, and JSON reports are stamped with the tool version and the
SHA-256 of each input so results stay traceable to the files that
produced them.

Exit codes: 0 success, 2 input validation, 3 I/O.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations, islice
from pathlib import Path

import numpy as np

from . import __version__, ahp, composite, emodel
from . import trace as tracemod

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

DISPLAY_DP = 3
TABLE_DP = 2
G729_NAMES = ("g729", "g.729")  # --profile values for the built-in; others are files


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


#: Characters of text encoded per write, so no encoded copy of a whole
#: report is held at once.
_WRITE_CHARS = 1 << 20


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a hidden temp file in the same directory, then rename; a failure
    removes it.  The temp file is new, so it is never an input or another output."""
    path = Path(path)
    n = 0
    while True:
        tmp = path.with_name(f".{path.name}.{os.getpid()}-{n}.tmp")
        try:
            fh = open(tmp, "x", encoding="utf-8")
            break
        except FileExistsError:
            n += 1
    try:
        with fh:
            for i in range(0, len(text), _WRITE_CHARS):
                fh.write(text[i : i + _WRITE_CHARS])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def json_text(payload) -> str:
    """The rendering of every JSON output; NaN and infinity raise."""
    return json.dumps(payload, indent=2, allow_nan=False)


def stamp(
    payload: dict, inputs: list[str | Path], data: list[bytes] | None = None
) -> dict:
    """Prefix a report payload with tool version and input hashes: of
    ``data``, the inputs' bytes as already read, when given, so no input
    is read twice."""
    if data is None:
        digests = [sha256_file(p) for p in inputs]
    else:
        digests = [hashlib.sha256(d).hexdigest() for d in data]
    return {
        "tool": {"name": "qoekit", "version": __version__},
        "inputs": [{"path": str(p), "sha256": h} for p, h in zip(inputs, digests)],
        **payload,
    }


def check_outputs(inputs: list[tuple], outputs: list[tuple]) -> None:
    """Raise when an output names the same file as an input or an earlier one."""
    def file_id(path):  # (inode, device) of a file that exists, else its absolute path
        try:
            return os.stat(path)[1:3]
        except OSError:
            return os.path.abspath(path)
    named = {file_id(p): name for name, p in inputs if p}
    for name, path in outputs:
        if path and (other := named.setdefault(file_id(path), name)) != name:
            raise ValueError(f"{name} names the same file as {other}: {path}")


def resolve_profile(ident: str) -> emodel.CodecProfile:
    """Resolve a --profile value: the built-in G.729, or a profile JSON path."""
    if ident.lower() in G729_NAMES:
        return emodel.G729
    if Path(ident).exists():
        return emodel.load_profile(ident)
    raise ValueError(f"unknown profile {ident!r}: not a built-in and not a file")


# ---------------------------------------------------------------------------
# ahp elicit

def parse_scale_entry(text: str) -> float:
    """Parse a 9-level scale entry: an integer 1..9 or a reciprocal '1/k'."""
    text = text.strip()
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a valid scale entry") from None
    allowed = [Fraction(k) for k in range(1, 10)]
    allowed += [Fraction(1, k) for k in range(2, 10)]
    if value not in allowed:
        raise ValueError(
            f"{text!r} is not on the 1-9 scale (use 1..9 or reciprocals like 1/3)"
        )
    return float(value)


def _echo_judgment_summary(js: ahp.JudgmentSet) -> ahp.ConsistencyReport:
    matrix = ahp.aggregate_judgments([js])  # the set's own reciprocal matrix
    _print_table(["Importance", *matrix.criteria], matrix.cells.tolist())
    weights, _ = ahp.column_average_weights(matrix)
    report = ahp.consistency(matrix)
    print_weights_and_consistency(weights, report, DISPLAY_DP)
    return report


def cmd_ahp_elicit(args: argparse.Namespace) -> int:
    if len(args.criteria) < 2:
        raise ValueError("at least 2 criteria are required")
    criteria = ahp._check_criteria(args.criteria)  # before the first prompt
    check_outputs([("--answers", args.answers)], [("--out", args.out)])
    scripted = args.answers is not None
    if scripted:
        read = emodel.names_file(Path.read_text)  # an error names the file
        lines = read(Path(args.answers), "utf-8").splitlines()
        answers = (a for a in map(str.strip, lines) if a and not a.startswith("#"))
    elif not sys.stdin.isatty():
        raise ValueError(
            "stdin is not a terminal; use --answers FILE for scripted sessions"
        )

    def ask(prompt: str, allow_empty: bool = False) -> str | None:
        """The next answer, echoed when scripted; None when an optional
        prompt has no more input or an empty reply."""
        if scripted:
            if (reply := next(answers, None)) is not None:
                print(f"{prompt}{reply}")
        else:
            try:
                reply = input(prompt).strip() or (None if allow_empty else "")
            except EOFError:
                reply = None
        if reply is None and not allow_empty:
            source = "answers file" if scripted else "input"
            raise ValueError(f"{source} ended before all pairs were judged")
        return reply

    judgments: dict[tuple[str, str], float] = {}
    for a, b in combinations(criteria, 2):
        prompt = f"importance of {a} vs {b} [1..9 or 1/k]: "
        while True:
            reply = ask(prompt)
            try:
                judgments[(a, b)] = parse_scale_entry(reply)
                break
            except ValueError as exc:
                print(f"  {exc}")
                if scripted:
                    # A scripted session cannot recover interactively.
                    raise

    js = ahp.JudgmentSet(args.evaluator_id, criteria, judgments)
    report = _echo_judgment_summary(js)

    while report.consistency_ratio > ahp.CR_THRESHOLD:
        print(
            f"consistency ratio {report.consistency_ratio:.{DISPLAY_DP}f} exceeds "
            f"{ahp.CR_THRESHOLD}; you may revise a pair before saving"
        )
        reply = ask(
            "revise [criterion criterion value], or press Enter to save: ",
            allow_empty=True,
        )
        if not reply:
            break
        try:
            if len(fields := reply.split()) != 3:
                raise ValueError(f"expected 'criterion criterion value', got {reply!r}")
            a, b, raw = fields
            if (b, a) in judgments:  # "a b v" means "b a 1/v"
                judgments[(b, a)] = 1 / parse_scale_entry(raw)
            elif (a, b) in judgments:
                judgments[(a, b)] = parse_scale_entry(raw)
            else:
                raise ValueError(f"unknown pair {a!r}/{b!r}")
        except ValueError as exc:
            print(f"  {exc}")
            if scripted:
                raise
            continue
        js = ahp.JudgmentSet(args.evaluator_id, criteria, judgments)
        report = _echo_judgment_summary(js)

    atomic_write_text(args.out, json_text(ahp.judgments_to_dict(js)) + "\n")
    print(f"saved judgment set to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ahp weights

def _print_table(header: list[str], rows: list[list[float]]) -> None:
    """A criteria table at TABLE_DP, laid out as ``ahp.table_to_csv_text``."""
    body = [
        [label, *(f"{v:.{TABLE_DP}f}" for v in row)]
        for label, row in zip(header[1:], rows)
    ]
    widths = [max(len(r[c]) for r in [header, *body]) for c in range(len(header))]
    for r in [header, *body]:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def print_weights_and_consistency(
    weights: ahp.WeightVector, report: ahp.ConsistencyReport, dp: int
) -> None:
    print(
        "weights: "
        + " ".join(f"{c}={w:.{dp}f}" for c, w in weights.as_dict().items())
    )
    # lambda_max can land an ulp below n; "+ 0.0" turns round()'s -0.0 into 0.000
    print(
        f"consistency: lambda_max={report.lambda_max:.{DISPLAY_DP}f} "
        f"CI={round(report.consistency_index, DISPLAY_DP) + 0.0:.{DISPLAY_DP}f} "
        f"CR={round(report.consistency_ratio, DISPLAY_DP) + 0.0:.{DISPLAY_DP}f} "
        f"acceptable={'yes' if report.acceptable else 'no'}"
    )


def cmd_ahp_weights(args: argparse.Namespace) -> int:
    outputs = ("weights.json", "matrix.csv", "weights.csv") if args.out_dir else ()
    inputs = [("--matrix", args.matrix), *(("a judgment file", p) for p in args.judgments)]
    check_outputs(inputs, [("--out-dir", Path(args.out_dir, name)) for name in outputs])
    if args.matrix and args.judgments:
        raise ValueError("give either judgment files or --matrix, not both")
    if args.matrix:
        with open(args.matrix, "rb") as fh:  # read once: parsed here, hashed by stamp
            data = [fh.read()]
        matrix, inputs = ahp.read_matrix_csv(args.matrix, data[0]), [Path(args.matrix)]
        aggregate_note = "pre-aggregated"
    elif args.judgments:
        sets, data = [], []
        for p in args.judgments:
            with open(p, "rb") as fh:  # read once: parsed here, hashed by stamp
                data.append(fh.read())
            sets.append(ahp.read_judgments(p, data[-1]))
        matrix = ahp.aggregate_judgments(sets, method=args.aggregate)
        inputs = [Path(p) for p in args.judgments]
        aggregate_note = args.aggregate
    else:
        raise ValueError("at least one judgment file (or --matrix) is required")

    weights, normalized = ahp.column_average_weights(matrix)
    if args.method == "eigenvector":
        weights = ahp.eigenvector_weights(matrix)
    report = ahp.consistency(matrix)

    tables = {
        "matrix.csv": (["Importance", *matrix.criteria], matrix.cells.tolist()),
        "weights.csv": (
            ["Weight", *matrix.criteria, "Average"],
            np.column_stack([normalized, weights.values]).tolist(),
        ),
    }
    for header, rows in tables.values():
        _print_table(header, rows)
        print()
    print_weights_and_consistency(weights, report, TABLE_DP)

    payload = stamp(
        {
            "criteria": list(matrix.criteria),
            "aggregate": aggregate_note,
            "method": args.method,
            "matrix": matrix.cells.tolist(),
            "normalized": normalized.tolist(),
            "weights": list(weights.values),
            "consistency": asdict(report),
        },
        inputs,
        data,
    )
    text = json_text(payload) if args.json or args.out_dir else None
    if args.json:
        print(text)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out_dir / "weights.json", text + "\n")
        for name, table in tables.items():
            atomic_write_text(out_dir / name, ahp.table_to_csv_text(*table))
        print(f"wrote weights.json, matrix.csv, weights.csv to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# mos

def _format_mos_line(payload: dict) -> str:
    mos, r, dp = payload["mos"], payload["r_factors"], DISPLAY_DP
    parts = [f"mos_{c}={mos[c]:.{dp}f}" for c in ("overall", "loss", "delay", "jitter")]
    parts += [f"r_{c}=" + ("n/a" if r[c] is None else f"{r[c]:.{dp}f}") for c in r]
    return " ".join([*parts, f"model={payload['model']}", f"profile={payload['profile']}"])


def _scoring_options(args: argparse.Namespace):
    """Model and profile from the scoring flags of `mos` and `trace analyze`."""
    model = composite.get_model(args.model, composite.load_models(args.models_config))
    return model, resolve_profile(args.profile)


def cmd_mos(args: argparse.Namespace) -> int:
    model, profile = _scoring_options(args)
    sample = composite.QosSample(args.loss, args.delay, args.jitter)
    mos, r_factors = composite.component_mos(sample, profile)
    overall = composite.combine(model, mos)  # first: it checks the model's criteria
    payload = {
        "model": model.name,
        "profile": profile.name,
        "sample": sample._asdict(),
        "r_factors": r_factors,
        "mos": {**{c: mos[c] for c in model.criteria}, "overall": overall},
    }
    if args.json:
        print(json_text(payload))
    else:
        print(_format_mos_line(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# trace gen / trace analyze

def cmd_trace_gen(args: argparse.Namespace) -> int:
    check_outputs([("the spec", args.spec)], [("--out", args.out)])
    spec = tracemod.load_impairment_spec(args.spec)
    trace = tracemod.generate(spec)
    out = Path(args.out)
    atomic_write_text(out, tracemod.trace_to_csv_text(trace))

    # the whole trace as one window; NaN = too few packets received
    m = tracemod.window_metrics(trace, np.zeros_like(trace.seq), "rfc3550")
    loss, delay, jitter = (c[0].item() for c in (m.loss_pct, m.delay_ms, m.jitter_ms))
    line = f"wrote {len(trace.seq)} packets to {out} (loss {loss:.{DISPLAY_DP}f}%"
    if delay == delay:
        line += f", mean delay {delay:.{DISPLAY_DP}f} ms"
    if jitter == jitter:
        line += f", jitter {jitter:.{DISPLAY_DP}f} ms"
    print(line + ")")
    return EXIT_OK


REPORT_CSV_COLUMNS = (
    "window_id",
    "loss_pct",
    "delay_ms",
    "jitter_ms",
    "mos_loss",
    "mos_delay",
    "mos_jitter",
    "mos_overall",
)

#: One window of the ``--out`` report as ``json_text`` indents it inside
#: the "windows" list, with a ``%s`` for each value.
REPORT_ROW = "    " + json_text({
    **dict.fromkeys(["window_id", "start_ms", "end_ms", "expected", "received",
                     "lost", "partial", "loss_pct", "delay_ms", "jitter_ms"], "%s"),
    "r_factors": dict.fromkeys(["loss", "delay", "jitter"], "%s"),
    **dict.fromkeys(["mos_loss", "mos_delay", "mos_jitter", "mos_overall"], "%s"),
}).replace('"%s"', "%s").replace("\n", "\n    ")
_DP = f"%.{DISPLAY_DP}f"
#: One line of the ``trace analyze`` table, with a format per ``REPORT_CSV_COLUMNS``.
TABLE_ROW = " ".join(["%d", _DP, "%s", "%s", _DP, _DP, _DP, _DP])
#: Windows scored, then rendered by one call of ``json``'s encoder, per block.
_REPORT_BLOCK = 1024


def report_rows(rows: list[str], values: list) -> str:
    """One block of the "windows" list: ``rows``, a ``REPORT_ROW`` or a
    ``row_templates`` row per window, joined by ``,\\n`` and filled with
    ``values`` in order.  One call of ``json``'s encoder renders every value,
    as ``json_text`` would, so NaN and infinity raise ValueError."""
    cells = json.dumps(values, allow_nan=False)[1:-1].split(", ")
    return ",\n".join(rows) % tuple(cells)


def row_templates(loss_pct, r_loss, mos_loss, r_jitter, mos_jitter) -> tuple[str, str]:
    """``REPORT_ROW`` and ``TABLE_ROW`` with a window's loss and jitter cells
    filled in: a ``%s`` (or a table format) is left for each of the others.
    The report cells go through ``json``'s encoder, as in ``report_rows``,
    so NaN and infinity raise ValueError."""
    cells = [loss_pct, r_loss, r_jitter, mos_loss, mos_jitter]  # in REPORT_ROW order
    loss_s, r_loss_s, r_jitter_s, m_loss_s, m_jitter_s = (
        json.dumps(cells, allow_nan=False)[1:-1].split(", ")
    )
    row = REPORT_ROW % (
        *["%s"] * 7, loss_s, "%s", "%s", r_loss_s, "%s", r_jitter_s,
        m_loss_s, "%s", m_jitter_s, "%s",
    )
    line = " ".join(["%d", _DP % loss_pct, "%s", "%s", _DP % mos_loss, _DP, _DP % mos_jitter, _DP])
    return row, line


def report_text(payload: dict, blocks: list[str]) -> str:
    """``json_text(payload)`` and a newline, with its empty "windows" list
    holding the ``report_rows`` blocks in order: the bytes of ``json_text``
    with row dicts, from one join of head, blocks and tail."""
    head, tail = json_text(payload).split('"windows": []', 1)
    rows = [part for block in blocks for part in (",\n", block)][1:]
    return "".join([head, '"windows": [\n', *rows, "\n  ]", tail, "\n"])


def cmd_trace_analyze(args: argparse.Namespace) -> int:
    files = [("the trace", args.trace), ("--models-config", args.models_config),
             ("--profile", None if args.profile.lower() in G729_NAMES else args.profile)]
    check_outputs(files, [("--out", args.out), ("--csv", args.csv)])
    model, profile = _scoring_options(args)

    out, dp = bool(args.out), _DP
    blocks, table = [], [" ".join(REPORT_CSV_COLUMNS)]
    count, total, lowest = 0, 0.0, math.inf
    # only an iterator is bound, so the trace is freed when windows() returns
    # and the window list when the loop ends; a block's values go once rendered
    windows = iter(tracemod.windows(
        tracemod.read_trace(args.trace), args.window, args.jitter_estimator
    ))
    while block := list(islice(windows, _REPORT_BLOCK)):
        # A window's loss and jitter cells (its key) repeat across windows, so
        # a key seen a second time in the block gets row templates with them
        # rendered; a key seen once, as when jitter exceeds the buffer, costs
        # a lookup and no template.
        rows, values, lines, cells, seen = [], [], [], [], {}
        for wid, sample, expected, lost, received, start, end, partial in block:
            loss, delay, jitter = sample
            mos, r_factors = composite.component_mos(sample, profile)
            m_overall = composite.combine(model, mos)
            r_loss, r_delay, r_jitter = r_factors["loss"], r_factors["delay"], r_factors["jitter"]
            m_loss, m_delay, m_jitter = mos["loss"], mos["delay"], mos["jitter"]
            delay_s = "n/a" if delay is None else dp % delay
            jitter_s = "n/a" if jitter is None else dp % jitter
            key = (loss, r_loss, m_loss, r_jitter, m_jitter)
            templates = seen.get(key)
            if templates is None:
                seen[key] = False
            elif templates is False:
                templates = seen[key] = row_templates(*key)
            if templates:
                row, line = templates
                if out:
                    values += (
                        wid, start, end, expected, received, lost, partial,
                        delay, jitter, r_delay, m_delay, m_overall,
                    )
                cells += (wid, delay_s, jitter_s, m_delay, m_overall)
            else:
                row, line = REPORT_ROW, TABLE_ROW
                if out:
                    values += (
                        wid, start, end, expected, received, lost, partial,
                        loss, delay, jitter, r_loss, r_delay, r_jitter,
                        m_loss, m_delay, m_jitter, m_overall,
                    )
                cells += (wid, loss, delay_s, jitter_s, m_loss, m_delay, m_jitter, m_overall)
            rows.append(row)
            lines.append(line)
            total += m_overall  # left to right, so no Python version changes the mean
            if m_overall < lowest:
                lowest = m_overall
        if out:
            blocks.append(report_rows(rows, values))
        table.append("\n".join(lines) % tuple(cells))
        count += len(block)

    summary = {
        "window_count": count,
        "mean_mos": total / count,
        "min_mos": lowest,
    }
    table_text = "\n".join(table)
    print(table_text)
    print(
        f"summary: windows={count} "
        f"mean_mos={summary['mean_mos']:.{DISPLAY_DP}f} "
        f"min_mos={summary['min_mos']:.{DISPLAY_DP}f}"
    )

    if args.out:
        payload = stamp(
            {
                "model": model.name,
                "profile": profile.name,
                "window_s": args.window,
                "jitter_estimator": args.jitter_estimator,
                "windows": [],
                "summary": summary,
            },
            [args.trace],
        )
        atomic_write_text(args.out, report_text(payload, blocks))
        print(f"wrote report to {args.out}")
    if args.csv:
        # the table with commas, and an empty cell where it says n/a
        csv_text = table_text.replace(" ", ",").replace("n/a", "")
        atomic_write_text(args.csv, csv_text + "\n")
        print(f"wrote table to {args.csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# models list

def cmd_models_list(args: argparse.Namespace) -> int:
    for name, model in sorted(composite.load_models(args.models_config).items()):
        weights = " ".join(
            f"{c}={w:.{DISPLAY_DP}f}" for c, w in model.weights.as_dict().items()
        )
        print(f"{name} [{model.scale}] {weights}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.  It binds each ``cmd_*``
    function then, by ``set_defaults(func=...)``: patching one later has no effect."""
    parser = argparse.ArgumentParser(
        prog="qoekit",
        description=(
            "Derive QoE-model weights from pairwise judgments, score QoS "
            "samples on the MOS scale, and measure loss/delay/jitter from "
            "packet traces."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ahp = sub.add_parser("ahp", help="judgment elicitation and weighting")
    ahp_sub = p_ahp.add_subparsers(dest="subcommand", required=True)

    p_elicit = ahp_sub.add_parser(
        "elicit", help="interactively collect pairwise judgments"
    )
    p_elicit.add_argument("--criteria", nargs="+", default=composite.VOICE_CRITERIA)
    p_elicit.add_argument("--evaluator-id", required=True)
    p_elicit.add_argument("--out", required=True, help="judgment JSON to write")
    p_elicit.add_argument(
        "--answers", help="scripted answers file (one entry per line)"
    )
    p_elicit.set_defaults(func=cmd_ahp_elicit)

    p_weights = ahp_sub.add_parser(
        "weights", help="aggregate judgments and derive weights"
    )
    p_weights.add_argument("judgments", nargs="*", help="judgment JSON files")
    p_weights.add_argument("--matrix", help="pre-aggregated matrix CSV instead")
    p_weights.add_argument(
        "--aggregate",
        choices=ahp.AGGREGATION_METHODS,
        default="arithmetic-mean",
    )
    p_weights.add_argument(
        "--method", choices=ahp.WEIGHT_METHODS, default="column-average"
    )
    p_weights.add_argument("--out-dir", help="write weights.json + CSV tables here")
    p_weights.add_argument("--json", action="store_true", help="print full JSON")
    p_weights.set_defaults(func=cmd_ahp_weights)

    # scoring flags shared by `mos` and `trace analyze`
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--model", default="paper-5g-ahp")
    scoring.add_argument(
        "--profile", default="g729", help="g729, or a codec profile JSON"
    )
    scoring.add_argument("--models-config")

    p_mos = sub.add_parser("mos", parents=[scoring], help="score one QoS sample")
    p_mos.add_argument("--loss", type=float, required=True, help="loss percent")
    p_mos.add_argument("--delay", type=float, required=True, help="one-way ms")
    p_mos.add_argument("--jitter", type=float, default=0.0, help="measured ms")
    p_mos.add_argument("--json", action="store_true")
    p_mos.set_defaults(func=cmd_mos)

    p_trace = sub.add_parser("trace", help="generate or analyze packet traces")
    trace_sub = p_trace.add_subparsers(dest="subcommand", required=True)

    p_gen = trace_sub.add_parser("gen", help="generate an impairment trace")
    p_gen.add_argument("spec", help="impairment spec JSON")
    p_gen.add_argument("--out", required=True, help="trace CSV to write")
    p_gen.set_defaults(func=cmd_trace_gen)

    p_analyze = trace_sub.add_parser(
        "analyze", parents=[scoring], help="windowed metrics and MOS for a trace"
    )
    p_analyze.add_argument("trace", help="trace CSV")
    p_analyze.add_argument(
        "--window", type=float, default=10.0, help="window length (s)"
    )
    p_analyze.add_argument(
        "--jitter-estimator",
        choices=tracemod.JITTER_ESTIMATORS,
        default="rfc3550",
    )
    p_analyze.add_argument("--out", help="report JSON to write")
    p_analyze.add_argument("--csv", help="plot-ready CSV table to write")
    p_analyze.set_defaults(func=cmd_trace_analyze)

    p_models = sub.add_parser("models", help="composite models")
    models_sub = p_models.add_subparsers(dest="subcommand", required=True)
    p_list = models_sub.add_parser("list", help="list the presets and --models-config models")
    p_list.add_argument("--models-config")
    p_list.set_defaults(func=cmd_models_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # a UserWarning is one stderr line, never an error
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
