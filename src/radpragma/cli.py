"""Command-line entry point.

Subcommands: label, stats, chi2, shift, clean, clean-eval, index, generate,
evaluate. Configuration values resolve with precedence
command-line flag > environment variable > config file > default,
and every run writes the resolved configuration next to its primary output
(``<out>.run.json``) for reproducibility. All outputs are written
atomically; an interrupted run never leaves a partial file at the final
path. Each handler imports the modules it runs, so a stage process loads
only those.

Exit codes: 0 success, 1 input error, 2 remote-backend failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Optional, Sequence

from . import corpus_io, metrics
from .errors import BackendError, DegenerateTableError, InputError
from .labeler import (Lexicon, default_lexicon, indication_mention_sets,
                      label_corpus)
from .model import SCORABLE_CONDITIONS, Report

if TYPE_CHECKING:
    from . import generator, stats

ENV_PREFIX = "RADPRAGMA_"


@dataclass
class Config:
    """Resolved runtime configuration, recorded alongside every output."""

    lexicon: Optional[str] = None
    keywords: Optional[str] = None
    clean_endpoint: Optional[str] = None
    generation_endpoint: Optional[str] = None
    auth_token: Optional[str] = None
    timeout: float = 30.0
    retries: int = 2
    shift_threshold: float = 0.25
    f1_average: str = "macro"
    jobs: int = 1


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}

#: The Config fields that take only some values of their type: a test of
#: the value and what the test asks for.
_LIMITS = {
    "f1_average": (lambda v: v in metrics.F1_AVERAGES,
                   "one of " + ", ".join(metrics.F1_AVERAGES)),
    "timeout": (lambda v: 0 < v < math.inf, "a finite number > 0"),
    "retries": (lambda v: v >= 0, "an integer >= 0"),
    "jobs": (lambda v: v >= 1, "an integer >= 1"),
    "shift_threshold": (lambda v: 0 <= v < math.inf, "a finite number >= 0"),
}


def _checked(name: str, value, source: str, given=None):
    """``value`` if it fits Config field ``name`` and its limit, else an
    InputError: ``<source>: expected <what>, got <given>``, where ``given``
    (by default ``value``) is the value as the source wrote it."""
    declared = _FIELD_TYPES[name]
    test, expected = _LIMITS.get(
        name, (lambda v: True, corpus_io.kind(declared).__name__))
    if corpus_io.fits(declared, value) and test(value):
        return value
    raise InputError(f"{source}: expected {expected}, got "
                     f"{value if given is None else given!r}")


def _file_values(values: dict) -> dict:
    """A config file's values, each checked against its Config field."""
    for name, value in values.items():
        if name not in _FIELD_TYPES:
            raise InputError(f"unknown config key {name!r}")
        _checked(name, value, f"config key {name!r}")
    return values


def resolve_config(args: argparse.Namespace) -> Config:
    path = getattr(args, "config", None)
    config = (Config(**corpus_io.load_json(path, "config", _file_values))
              if path else Config())
    known = {ENV_PREFIX + name.upper() for name in _FIELD_TYPES}
    for variable in sorted(os.environ):
        if variable.startswith(ENV_PREFIX) and variable not in known:
            print(f"warning: unknown environment variable {variable} is "
                  f"ignored", file=sys.stderr)
    for name, declared in _FIELD_TYPES.items():
        variable = ENV_PREFIX + name.upper()
        raw = os.environ.get(variable)
        if raw is not None:
            try:
                value = corpus_io.kind(declared)(raw)
            except ValueError:
                value = raw
            setattr(config, name, _checked(name, value, variable, raw))
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            flag = ("--threshold" if name == "shift_threshold"
                    else "--" + name.replace("_", "-"))
            setattr(config, name, _checked(name, value, flag))
    return config


def _endpoint(config: Config, name: str, what: str) -> str:
    """Config field ``name``, the endpoint that ``what`` requires."""
    endpoint = getattr(config, name)
    if not endpoint:
        raise InputError(
            f"{what} requires an endpoint (flag --{name.replace('_', '-')}, "
            f"env {ENV_PREFIX}{name.upper()}, or config file)")
    return endpoint


def _load_lexicon(config: Config) -> Lexicon:
    if config.lexicon:
        return Lexicon.load(config.lexicon)
    return default_lexicon()


def _load_catalog(config: Config) -> metrics.KeywordCatalog:
    if config.keywords:
        return metrics.KeywordCatalog.load(config.keywords)
    return metrics.default_catalog()


def _write_run_config(primary_out: Optional[str], command: str,
                      config: Config, inputs: dict, memos: dict) -> None:
    if primary_out:
        # Only whether a token is sent: the file is world-readable under the
        # usual umask, and every stage writes one.
        recorded = asdict(config) | {"auth_token": bool(config.auth_token)}
        run = {"command": command, "config": recorded, "inputs": inputs}
        corpus_io.write_json(primary_out + ".run.json", run | memos)


def _label_memo(lexicon: Lexicon) -> dict:
    return {"label_memo": lexicon.memo_counts()}


def _run_all(work, items, workers: int) -> list:
    """``work`` over ``items`` in order, on ``workers`` threads if > 1."""
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, items))
    return [work(item) for item in items]


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "NA"
    return format(value, ".10g")


def _cell(value) -> str:
    """A summary CSV cell: counts verbatim, rates through ``_fmt``."""
    return str(value) if isinstance(value, int) else _fmt(value)


def _labeled_corpus(args, config: Config) -> tuple:
    """The ``--in`` corpus, its labels (``--labels`` if given, else the
    labeler's), its indication mention sets and the lexicon."""
    lexicon = _load_lexicon(config)
    corpus = corpus_io.read_reports_jsonl(args.infile)
    labels = (corpus_io.read_labels_csv(args.labels) if args.labels
              else label_corpus(corpus, lexicon))
    return corpus, labels, indication_mention_sets(corpus, lexicon), lexicon


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes the parsed arguments and the resolved
# Config, and returns what ``<out>.run.json`` records: the inputs, and the
# hits and misses of each memo the stage used, by run.json key.
# ---------------------------------------------------------------------------


def cmd_label(args, config: Config) -> tuple:
    lexicon = _load_lexicon(config)
    corpus = corpus_io.read_reports_jsonl(args.infile)
    labels = label_corpus(corpus, lexicon)
    corpus_io.write_labels_csv(labels, args.out)
    return {"in": args.infile}, _label_memo(lexicon)


def _summary_csv(summary: stats.CorpusSummary) -> str:
    from .stats import ConditionStats
    scalars = summary.to_dict()
    per_condition = scalars.pop("per_condition")
    rows = [["metric", "value"]]
    rows += [[name, _cell(value)] for name, value in scalars.items()]
    rows += [[], ["condition"]
             + [f.name for f in fields(ConditionStats)]]
    rows += [[name] + [_cell(value) for value in cstats.values()]
             for name, cstats in per_condition.items()]
    return corpus_io.csv_text(rows)


def _print_summary(summary: stats.CorpusSummary) -> None:
    print(f"{'reports':44s} {summary.report_count}")
    print(f"{'% No Finding':44s} {_fmt(summary.pct_no_finding)}")
    print(f"{'avg positive mentions':44s} "
          f"{_fmt(summary.avg_positive_mentions)}")
    print(f"{'avg positive mentions (non-No-Finding)':44s} "
          f"{_fmt(summary.avg_positive_mentions_non_no_finding)}")
    print(f"{'avg negative mentions':44s} "
          f"{_fmt(summary.avg_negative_mentions)}")
    print(f"{'avg negative mentions (non-No-Finding)':44s} "
          f"{_fmt(summary.avg_negative_mentions_non_no_finding)}")
    print()
    print(f"{'condition':28s} {'neg':>6s} {'in-ind':>7s} {'% neg | ind':>12s}")
    for condition, cstats in summary.per_condition:
        pct = _fmt(cstats.pct_reports_with_negative_given_indication)
        print(f"{condition.value:28s} {cstats.negative_mentions:6d} "
              f"{cstats.indication_mentions:7d} {pct:>12s}")


def cmd_stats(args, config: Config) -> tuple:
    from . import stats
    corpus, labels, mentions, lexicon = _labeled_corpus(args, config)
    summary = stats.summarize(corpus, labels, mentions)
    corpus_io.write_text_atomic(args.out, _summary_csv(summary))
    if args.json:
        corpus_io.write_json(args.json, summary.to_dict())
    _print_summary(summary)
    return {"in": args.infile, "labels": args.labels}, _label_memo(lexicon)


def cmd_chi2(args, config: Config) -> tuple:
    from . import stats
    conditions = SCORABLE_CONDITIONS
    if args.condition:
        by_name = {c.value: c for c in SCORABLE_CONDITIONS}
        if args.condition not in by_name:
            raise InputError(f"unknown condition {args.condition!r}: "
                             f"--condition takes one of {', '.join(by_name)}")
        conditions = [by_name[args.condition]]
    corpus, labels, mentions, lexicon = _labeled_corpus(args, config)
    rows = [["condition", "p_in", "p_out", "statistic", "p_value",
             "significant"]]
    for condition in conditions:
        p_in, p_out, table = stats.conditional_negative_rates(
            corpus, labels, mentions, condition)
        try:
            statistic, p_value = stats.chi_square_test(table)
            significant = "***" if p_value < 0.001 else ""
            stat_text, p_text = _fmt(statistic), _fmt(p_value)
        except DegenerateTableError:
            stat_text = p_text = "NA"
            significant = ""
        rows.append([condition.value, _fmt(p_in), _fmt(p_out),
                     stat_text, p_text, significant])
    corpus_io.write_text_atomic(args.out, corpus_io.csv_text(rows))
    return {"in": args.infile, "labels": args.labels}, _label_memo(lexicon)


def cmd_shift(args, config: Config) -> tuple:
    from . import stats
    split_a, split_b = (
        corpus_io.load_json(path, "summary", stats.CorpusSummary.from_dict)
        for path in (args.a, args.b))
    shift = stats.shift_report(split_a, split_b, config.shift_threshold)
    rows = [["field", "a", "b", "delta", "relative", "flagged"]]
    rows += [[delta.field, _fmt(delta.a), _fmt(delta.b), _fmt(delta.delta),
              _fmt(delta.relative), str(delta.flagged).lower()]
             for delta in shift.fields]
    if args.out:
        corpus_io.write_text_atomic(args.out, corpus_io.csv_text(rows))
    flagged = shift.flagged_fields()
    print(f"{len(flagged)} field(s) exceed relative delta "
          f"{shift.threshold:g}")
    for delta in flagged:
        print(f"  {delta.field}: {_fmt(delta.a)} -> {_fmt(delta.b)} "
              f"(relative {_fmt(delta.relative)})")
    return {"a": args.a, "b": args.b}, {}


def cmd_clean(args, config: Config) -> tuple:
    from . import backends, cleaning
    lexicon = _load_lexicon(config)
    corpus = corpus_io.read_reports_jsonl(args.infile)
    memo = cleaning.FoldMemo(audit=bool(args.audit))

    def clean_all(backend, workers: int) -> list:
        # Each report's audit lines, made only if they will be written.
        def clean(report):
            cleaned, audits = cleaning.clean_report_audited(
                report, backend, lexicon, memo)
            return cleaned, cleaning.audit_jsonl(report.study_id, audits)

        return _run_all(clean, corpus, workers)

    if args.backend == "pattern":
        results = clean_all(backends.PatternBackend(), 1)
    else:
        with backends.RemoteRewriteBackend(
                _endpoint(config, "clean_endpoint", "remote cleaning backend"),
                auth_token=config.auth_token, timeout=config.timeout,
                retries=config.retries) as backend:
            results = clean_all(backend, config.jobs)
    corpus_io.write_reports_jsonl([report for report, _ in results], args.out)
    if args.audit:
        corpus_io.write_text_atomic(
            args.audit, "".join(lines for _, lines in results))
    return ({"in": args.infile, "backend": args.backend},
            _label_memo(lexicon) | {"clean_memo": memo.counts()})


def _read_sentences(path: str) -> list[str]:
    with corpus_io.open_utf8(path) as handle:
        return [line.rstrip("\n") for line in handle]


def cmd_clean_eval(args, config: Config) -> tuple:
    from . import cleaning
    lexicon = _load_lexicon(config)
    scores = cleaning.evaluate_cleaning(
        _read_sentences(args.machine), _read_sentences(args.manual),
        _read_sentences(args.original), lexicon)
    if args.out:
        corpus_io.write_json(args.out, scores)
    print(json.dumps(scores, ensure_ascii=False, sort_keys=True, indent=2))
    return {"machine": args.machine, "manual": args.manual,
            "original": args.original}, _label_memo(lexicon)


def cmd_index(args, config: Config) -> tuple:
    from . import generator
    lexicon = _load_lexicon(config)
    corpus = corpus_io.read_reports_jsonl(args.infile)
    index = generator.build_index(corpus, lexicon)
    index.save(args.out)
    return {"in": args.infile}, _label_memo(lexicon)


def _read_predictions(path: str) -> dict[str, frozenset]:
    labels = corpus_io.read_labels_csv(path)
    return {study_id: vector.positives()
            for study_id, vector in labels.items()}


def _build_requests(args) -> list[generator.GenerationRequest]:
    from .generator import GenerationRequest
    reports = corpus_io.read_reports_jsonl(args.requests)
    predictions = (_read_predictions(args.predictions)
                   if args.predictions else {})
    requests_out = []
    for report in reports:
        positives = (corpus_io.lookup(predictions, report.study_id,
                                      "prediction row")
                     if args.predictions else frozenset())
        try:
            requests_out.append(GenerationRequest(
                study_id=report.study_id, indication=report.indication,
                predicted_positives=positives))
        except ValueError as exc:
            raise InputError(f"study_id {report.study_id!r}: {exc}") from None
    return requests_out


def cmd_generate(args, config: Config) -> tuple:
    from . import generator
    lexicon = _load_lexicon(config)
    requests_in = _build_requests(args)
    if args.mode == "retrieval":
        if not args.index:
            raise InputError("retrieval generation requires --index")
        index = generator.RetrievalIndex.load(args.index, lexicon)
        results = [generator.generate_retrieval(request, index, lexicon)
                   for request in requests_in]
    else:
        from .backends import RemoteEndpoint
        with RemoteEndpoint(
                _endpoint(config, "generation_endpoint", "remote generation"),
                "generation", config.auth_token, config.timeout) as client:
            results = _run_all(
                lambda request: generator.generate_remote(request, client),
                requests_in, config.jobs)
    reports = [Report(study_id=request.study_id,
                      indication=request.indication,
                      impression=result.text)
               for request, result in zip(requests_in, results)]
    corpus_io.write_reports_jsonl(reports, args.out)
    if args.audit:
        corpus_io.write_jsonl(args.audit, (r.audit_dict() for r in results),
                              sort_keys=True)
    return {"requests": args.requests, "index": args.index,
            "predictions": args.predictions,
            "mode": args.mode}, _label_memo(lexicon)


_METRICS_CSV_COLUMNS = ["pos_f1", "pos_f1_5", "bleu2", "clean_bleu2",
                        "neg_f1", "neg_f1_5", "hallucination_rate"]


def cmd_evaluate(args, config: Config) -> tuple:
    lexicon = _load_lexicon(config)
    catalog = _load_catalog(config)
    generated = corpus_io.read_reports_jsonl(args.generated)
    ref_original = corpus_io.read_reports_jsonl(args.ref_original)
    ref_clean = corpus_io.read_reports_jsonl(args.ref_clean)
    reference_labels = (corpus_io.read_labels_csv(args.ref_original_labels)
                        if args.ref_original_labels else None)
    report = metrics.evaluate_generation(
        generated, ref_original, ref_clean, lexicon, catalog,
        average=config.f1_average, reference_labels=reference_labels)
    scores = report.to_dict()
    corpus_io.write_json(args.out, scores)
    if args.csv:
        corpus_io.write_text_atomic(args.csv, corpus_io.csv_text([
            _METRICS_CSV_COLUMNS,
            [_fmt(scores[column]) for column in _METRICS_CSV_COLUMNS]]))
    print("Positive F1-5 conditions: "
          + ", ".join(c.value for c in report.pos_f1_5_conditions))
    for column in _METRICS_CSV_COLUMNS:
        print(f"{column:20s} {_fmt(scores[column])}")
    return ({"generated": args.generated, "ref_original": args.ref_original,
             "ref_clean": args.ref_clean,
             "ref_original_labels": args.ref_original_labels},
            _label_memo(lexicon))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--lexicon", help="lexicon JSON path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radpragma",
        description="Pragmatic radiology-report corpus toolkit.",
        epilog="Configuration precedence: command-line flag, then "
               f"{ENV_PREFIX}* environment variable, then --config file, "
               "then built-in default.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("label", help="label a corpus to CSV")
    _common_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_label)

    p = subparsers.add_parser("stats", help="corpus mention statistics")
    _common_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--labels", help="precomputed label CSV")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.add_argument("--json", help="also write the summary as JSON")
    p.set_defaults(handler=cmd_stats)

    p = subparsers.add_parser(
        "chi2", help="indication vs negative-mention chi-square test")
    _common_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--labels", help="precomputed label CSV")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--condition", help="single condition name")
    group.add_argument("--all", action="store_true",
                       help="all conditions (default)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_chi2)

    p = subparsers.add_parser("shift", help="diff two corpus summaries")
    _common_flags(p)
    p.add_argument("--a", required=True, help="summary JSON for split A")
    p.add_argument("--b", required=True, help="summary JSON for split B")
    p.add_argument("--threshold", dest="shift_threshold", type=float,
                   help="relative-delta flag threshold (default 0.25)")
    p.add_argument("--out", help="optional CSV output")
    p.set_defaults(handler=cmd_shift)

    p = subparsers.add_parser("clean", help="clean a corpus")
    _common_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", choices=["pattern", "remote"],
                   default="pattern")
    p.add_argument("--audit", help="per-sentence audit JSONL path")
    p.add_argument("--jobs", type=int,
                   help="requests in flight with --backend remote; the "
                        "pattern backend runs in one thread")
    p.add_argument("--clean-endpoint", dest="clean_endpoint")
    p.set_defaults(handler=cmd_clean)

    p = subparsers.add_parser(
        "clean-eval", help="score machine cleaning against manual cleaning")
    _common_flags(p)
    p.add_argument("--machine", required=True, help="one sentence per line")
    p.add_argument("--manual", required=True)
    p.add_argument("--original", required=True)
    p.add_argument("--out", help="optional JSON output")
    p.set_defaults(handler=cmd_clean_eval)

    p = subparsers.add_parser("index", help="build a retrieval index")
    _common_flags(p)
    p.add_argument("--in", dest="infile", required=True,
                   help="cleaned corpus JSONL")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_index)

    p = subparsers.add_parser("generate", help="generate reports")
    _common_flags(p)
    p.add_argument("--requests", required=True,
                   help="report JSONL carrying study_id and indication")
    p.add_argument("--predictions",
                   help="CSV with 1.0 marking predicted positives")
    p.add_argument("--index", help="retrieval index path")
    p.add_argument("--mode", choices=["retrieval", "remote"],
                   default="retrieval")
    p.add_argument("--out", required=True)
    p.add_argument("--audit", help="per-request audit JSONL path")
    p.add_argument("--jobs", type=int,
                   help="requests in flight with --mode remote; retrieval "
                        "runs in one thread")
    p.add_argument("--generation-endpoint", dest="generation_endpoint")
    p.set_defaults(handler=cmd_generate)

    p = subparsers.add_parser("evaluate", help="score a generated corpus")
    _common_flags(p)
    p.add_argument("--generated", required=True)
    p.add_argument("--ref-original", dest="ref_original", required=True)
    p.add_argument("--ref-clean", dest="ref_clean", required=True)
    p.add_argument("--ref-original-labels", dest="ref_original_labels",
                   help="precomputed label CSV for the original references")
    p.add_argument("--keywords", help="keyword catalog JSON path")
    p.add_argument("--average", dest="f1_average",
                   choices=metrics.F1_AVERAGES)
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.add_argument("--csv", help="optional one-row metrics CSV")
    p.set_defaults(handler=cmd_evaluate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        inputs, memos = args.handler(args, config)
        _write_run_config(args.out, args.command, config, inputs, memos)
        return 0
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, DegenerateTableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
