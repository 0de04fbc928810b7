"""Command line front end.

Subcommands: run a config, synthesize a fixture CSV, explain a saved
model against a config's data pipeline, and print a ranked report from
an existing bundle directory. Exit codes: 0 on success, 1 on usage
errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .data import FixtureSpec, check_seed, make_fixture, write_csv
from .errors import ConfigError, HeartlabError
from .models import _check_fingerprint, load_model, lossless, save_model
from .runner import (
    METRIC_FIELDS,
    _explain_tracks,
    _rank,
    _run_explain,
    _write_tables,
    compare_models,
    parse_config,
    prepare_tracks,
    run_experiment,
)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heartlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
    p_run.add_argument("--save-models", action="store_true",
                       help="also write model_<track>_<name>.json files")
    p_run.set_defaults(func=_cmd_run)

    p_fix = sub.add_parser("fixture", help="write a synthetic dataset CSV")
    p_fix.add_argument("out", help="output CSV path")
    p_fix.add_argument("--n", type=int, required=True, help="number of rows")
    p_fix.add_argument("--seed", type=int, required=True)
    p_fix.add_argument("--noise", type=float, default=0.1,
                       help="target noise sigma (default 0.1)")
    p_fix.set_defaults(func=_cmd_fixture)

    p_exp = sub.add_parser("explain", help="explain a saved model")
    p_exp.add_argument("model_file", help="path to a saved model JSON")
    p_exp.add_argument("config", help="config providing data and explain requests")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.set_defaults(func=_cmd_explain)

    p_rep = sub.add_parser("report", help="print a ranked model comparison")
    p_rep.add_argument("bundle_dir", help="output directory of a previous run")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def _read_utf8(path) -> str:
    """A file's text; bytes that are not UTF-8 are a ConfigError naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _config(args):
    return parse_config(json.loads(_read_utf8(args.config)), seed_override=args.seed)


def _cmd_run(args) -> int:
    cfg = _config(args)
    bundle = run_experiment(cfg)
    if args.save_models:
        out = Path(cfg.output_dir)
        for (track, name), result in sorted(bundle.results.items()):
            (out / f"model_{track}_{name}.json").write_bytes(save_model(result.model))
    print(f"bundle written to {cfg.output_dir}")
    for row in compare_models(bundle):
        print(_rank_line(row))
    return 0


def _cmd_fixture(args) -> int:
    spec = FixtureSpec(noise_sigma=args.noise)
    check_seed(args.seed)
    ds = make_fixture(args.n, spec, seed=args.seed)
    write_csv(ds, args.out)
    print(f"wrote {ds.n_rows} rows to {args.out}")
    return 0


def _cmd_explain(args) -> int:
    model = load_model(Path(args.model_file).read_bytes())
    cfg = _config(args)
    if not cfg.explain:
        raise ConfigError("config has no explain requests")
    tracks, _, _ = prepare_tracks(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Output files carry the loaded model's file stem, not the config's
    # model names: the requests only specify where and what to explain, and
    # the first request of each method on each track answers for the model.
    stem = Path(args.model_file).stem
    first, written = {}, []
    for i, (req, track) in enumerate(_explain_tracks(cfg, tracks)):
        if (track, req.method) in first:
            print(f"explain[{i}] skipped: explain[{first[track, req.method]}] already gives "
                  f"{req.method} on the {track} track")
            continue
        first[track, req.method] = i
        _check_fingerprint(model, tracks[track].test)
        written.append((f"_{track}_{stem}", _run_explain(cfg, req, model, tracks[track])))
    for tag, tables in written:
        _write_tables(out_dir, tag, tables)
    print(f"explanations written to {cfg.output_dir}")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.bundle_dir) / "metrics.csv"
    reader = csv.DictReader(_read_utf8(path).splitlines(keepends=True))
    rows = list(reader)
    if not rows:
        raise ConfigError(f"no metric rows in {path}")
    for i, r in enumerate(rows, start=1):
        if None in r or None in r.values():  # a cell short of or past the header
            raise ConfigError(f"{path}: row {i} does not have one cell per column")
    for k in ("track", "task", "model"):
        if k not in reader.fieldnames:
            raise ConfigError(f"{path} has no {k!r} column")
    table = _rank((r["track"], r["task"], r["model"],
                   {k: _number(path, k, v) for k, v in r.items() if k in METRIC_FIELDS and v})
                  for r in rows)
    for row in table:
        print(_rank_line(row))
    return 0


def _number(path: Path, column: str, cell: str) -> float:
    try:
        return lossless(float, cell)
    except ValueError:
        raise ConfigError(f"{path}: {column} cell {cell!r} is not a finite number") from None


def _rank_line(row: dict) -> str:
    parts = [f"{row['track']}/{row['task']}", f"#{row['rank']}", row["model"]]
    for k, v in row.items():
        if k in ("track", "task", "rank", "model"):
            continue
        parts.append(f"{k}={'NA' if v is None else f'{v:.4f}'}")
    return "  ".join(parts)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except (HeartlabError, OSError, json.JSONDecodeError) as exc:
        where = f"{exc.heartlab_model}: " if hasattr(exc, "heartlab_model") else ""
        print(f"heartlab: error: {where}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
