"""Command-line front end.

Subcommands:

* ``rank``   rank one corpus bundle and print a TSV ranking;
* ``eval``   compare the ranking strategies over a manifest of bundles;
* ``agg``    aggregate crowdsourced judgments into one grade per item;
* ``alpha``  inter-rater reliability of a judgments file.

Exit codes: 0 on success, 1 on any input problem, 2 when ``--strict`` is
set and an iterative stage failed to converge.  All numbers print with 12
significant digits and stdout is kept deterministic; timings and warnings
go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

from .corpus import load_bundle
from .evaluation import compare_strategies
from .judgments import (
    FILTER_THRESHOLD,
    filter_workers,
    format_qrels,
    krippendorff_alpha,
    load_judgments,
    load_qrels,
    majority_vote,
)
from .rank import STRATEGIES, Pipeline, PipelineParams
from .types import ConvergenceWarning, InputFormatError, parse_int, read_rows, shown

__all__ = ["main"]


#: Ranking lines ``rank`` formats and writes at a time, so that it never
#: holds the text of a whole large ranking.
_RANK_CHUNK_LINES = 4096


def _fmt(x: float) -> str:
    return format(x, ".12g")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _integer(text: str) -> int:
    """An integer flag value: ASCII digits only, as every integer of the
    input files (``int`` would also take ``1_0`` and non-ASCII digits)."""
    try:
        return parse_int(text, "", 0, "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}") from None


def _real(text: str) -> float:
    """A float flag value: what ``float`` takes, echoed by ``shown`` if not."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {shown(text)}") from None


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alpha", type=_real,
        help="walk damping: weight of the graph vs the teleport (default: %(default)s)",
    )
    parser.add_argument(
        "--ndim", type=_integer,
        help="latent dimensions kept by the truncated SVD (default: %(default)s)",
    )
    parser.add_argument(
        "--stress", type=_real,
        help="row amplification applied to the resources under focus "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--tol", type=_real,
        help="L1 convergence tolerance of the power iteration (default: %(default)s)",
    )
    parser.add_argument(
        "--bidirectional", action="store_true",
        help="mirror every graph edge before walking",
    )
    parser.add_argument(
        "--lambda", dest="damping", type=_real,
        help="consensus step size in (0, 1] (default: %(default)s)",
    )
    parser.add_argument(
        "--consensus-eps", dest="consensus_epsilon", metavar="CONSENSUS_EPS", type=_real,
        help="consensus stopping threshold on the largest pairwise distance "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--consensus-max-iters", type=_integer,
        help="consensus iteration cap (default: %(default)s)",
    )
    parser.add_argument(
        "--max-iters", dest="power_max_iters", metavar="MAX_ITERS", type=_integer,
        help="power iteration cap (default: %(default)s)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit with code 2 if any iterative stage fails to converge",
    )
    # Set after the flags exist, so that their %(default)s help shows these.
    parser.set_defaults(**asdict(PipelineParams()))


def _params_from(args) -> PipelineParams:
    return PipelineParams(**{f.name: getattr(args, f.name) for f in fields(PipelineParams)})


def _cmd_rank(args) -> None:
    params = _params_from(args)
    bundle = load_bundle(args.graph, args.texts, args.serp, args.query)
    pipeline = Pipeline(bundle, params)
    result = pipeline.rank(args.strategy)
    if args.emit_priors:
        priors = [pipeline.prior(name).values for name in STRATEGIES]
        with open(args.emit_priors, "w", encoding="utf-8") as fh:
            fh.write("resource\tequi\thit\tsvd\tfinal\n")
            for i, rid in enumerate(bundle.resource_ids):
                fh.write(rid + "".join(f"\t{_fmt(p[i])}" for p in priors) + "\n")
    ids, values = bundle.resource_ids, result.scores.values
    for start in range(0, len(result.order), _RANK_CHUNK_LINES):
        order = result.order[start:start + _RANK_CHUNK_LINES]
        rows = zip(order.tolist(), values[order].tolist())
        sys.stdout.write("".join(
            f"{pos}\t{ids[idx]}\t{_fmt(score)}\n"
            for pos, (idx, score) in enumerate(rows, start=start + 1)
        ))


def _cannot_open(exc: OSError) -> str:
    """The reason for a file that cannot be opened: its name, echoed by
    ``shown``, and the system's reason."""
    return f"cannot open {shown(os.fsdecode(exc.filename))}: {exc.strerror}"


def _read_manifest(path):
    """Bundle manifest: per line, its number and five tab-separated paths
    (graph, texts, serp, query, qrels) relative to the manifest's directory."""
    base = Path(path).parent
    entries = []
    for line_no, fields in read_rows(path, 5, "paths"):
        if "" in fields:
            raise InputFormatError(path, line_no, "empty path")
        entries.append((line_no, tuple(base / f for f in fields)))
    return entries


def _manifest_pairs(path):
    """Each manifest entry's ``(bundle, judgments)``: the whole manifest is
    read first, then each entry loaded as it is reached."""
    for line_no, (graph, texts, serp, query, qrels) in _read_manifest(path):
        try:
            yield load_bundle(graph, texts, serp, query), load_qrels(qrels)
        except OSError as exc:  # a file the entry names cannot be opened
            if exc.filename is None:
                raise
            raise InputFormatError(path, line_no, _cannot_open(exc)) from exc


def _cmd_eval(args) -> None:
    params = _params_from(args)
    tokens = [tok.strip() for tok in args.cutoffs.split(",") if tok.strip()]
    try:  # ASCII digits only, as every integer of the input files
        cutoffs = [parse_int(tok, "--cutoffs", 0, "cutoff") for tok in tokens]
    except ValueError:
        raise ValueError(f"invalid cutoff list {shown(args.cutoffs)}") from None
    table = compare_strategies(_manifest_pairs(args.manifest), cutoffs, params)
    out = sys.stdout
    header = "strategy\t" + "\t".join(f"ndcg@{r}" for r in table.cutoffs)
    out.write(header + "\n")
    if table.n_queries:
        for name in STRATEGIES:
            cells = "\t".join(_fmt(table.mean_ndcg[name][r]) for r in table.cutoffs)
            out.write(f"{name}\t{cells}\n")
        if args.per_query:
            out.write("\n")
            out.write("query\t" + header + "\n")
            for qi, row in enumerate(table.per_query_ndcg, start=1):
                for name in STRATEGIES:
                    cells = "\t".join(_fmt(row[name][r]) for r in table.cutoffs)
                    out.write(f"{qi}\t{name}\t{cells}\n")
        for name in STRATEGIES:
            print(f"timing: {name} mean {table.mean_seconds[name]:.6f}s", file=sys.stderr)


def _judgments(args):
    """The judgments file, less the workers ``--filter-threshold`` drops."""
    judgments = load_judgments(args.judgments)
    if args.filter_threshold is not None:
        judgments = filter_workers(judgments, args.filter_threshold)
    return judgments


def _cmd_agg(args) -> None:
    graded = majority_vote(_judgments(args), tie_break=args.tie_break)
    sys.stdout.write(format_qrels(graded))


def _cmd_alpha(args) -> None:
    judgments = _judgments(args)
    try:
        alpha = krippendorff_alpha(judgments)
    except ValueError as exc:  # a fault of the file as a whole
        raise InputFormatError(args.judgments, 0, str(exc)) from exc
    print(_fmt(alpha))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ldrank",
        description=(
            "Query-biased ranking of linked-data resources: text-derived "
            "priors pooled into the teleport vector of a damped random walk."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser(
        "rank",
        help="rank one corpus bundle",
        description=(
            "Rank the resources of one corpus bundle and print "
            "rank<TAB>resource-id<TAB>score lines."
        ),
    )
    p_rank.add_argument("graph", help="tab-separated subject/predicate/object triples")
    p_rank.add_argument("texts", help="JSON Lines resource texts ({id, text})")
    p_rank.add_argument("serp", help="tab-separated rank/doc-id/resource-list page")
    p_rank.add_argument("query", help="query resource ids, one per line")
    p_rank.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="LDRANK",
        help="teleport construction strategy (default: LDRANK)",
    )
    _add_pipeline_flags(p_rank)
    p_rank.add_argument(
        "--emit-priors", metavar="PATH",
        help="also write the prior distributions and their consensus as TSV",
    )
    p_rank.set_defaults(func=_cmd_rank)

    p_eval = sub.add_parser(
        "eval",
        help="compare strategies over a manifest of bundles",
        description=(
            "Run every strategy over the bundles listed in MANIFEST (five "
            "tab-separated paths per line: graph, texts, serp, query, qrels) "
            "and print mean NDCG per strategy; timings go to stderr."
        ),
    )
    p_eval.add_argument("manifest", help="bundle manifest file")
    p_eval.add_argument(
        "--cutoffs", required=True,
        help="comma-separated NDCG cutoffs, e.g. 1,3,5",
    )
    p_eval.add_argument(
        "--per-query", action="store_true",
        help="also print the per-query NDCG table",
    )
    _add_pipeline_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_agg = sub.add_parser(
        "agg",
        help="aggregate crowdsourced judgments to one grade per item",
        description=(
            "Majority-vote a JSON Lines judgments file into item<TAB>grade "
            "lines, optionally filtering unreliable workers first."
        ),
    )
    p_agg.add_argument("judgments", help="JSON Lines judgments file")
    p_agg.add_argument(
        "--filter-threshold", type=_real, nargs="?", const=FILTER_THRESHOLD,
        help="drop workers whose majority-disagreement rate exceeds this "
             "(bare flag: %(const)s)",
    )
    p_agg.add_argument(
        "--tie-break", choices=("highest-value", "mean-trust"),
        default="highest-value",
        help="tie handling for split votes (default: highest-value)",
    )
    p_agg.set_defaults(func=_cmd_agg)

    p_alpha = sub.add_parser(
        "alpha",
        help="inter-rater reliability of a judgments file",
        description=(
            "Print the chance-corrected agreement of a JSON Lines judgments "
            "file, using the graded-relevance distance between grades."
        ),
    )
    p_alpha.add_argument("judgments", help="JSON Lines judgments file")
    p_alpha.add_argument(
        "--filter-threshold", type=_real, nargs="?", const=FILTER_THRESHOLD,
        help="apply worker filtering before measuring agreement "
             "(bare flag: %(const)s)",
    )
    p_alpha.set_defaults(func=_cmd_alpha)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; its warnings follow its output unless an error ends it."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args.func(args)
    except (OSError, ValueError) as exc:
        named = getattr(exc, "filename", None) is not None  # a file that cannot be opened
        print(f"error: {_cannot_open(exc) if named else exc}", file=sys.stderr)
        return 1
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    nonconverged = any(issubclass(w.category, ConvergenceWarning) for w in caught)
    return 2 if nonconverged and getattr(args, "strict", False) else 0


if __name__ == "__main__":
    sys.exit(main())
