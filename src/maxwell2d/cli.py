"""Command-line front end for convergence campaigns.

Every flag is declared once, in ``_FLAGS``: the StudyConfig field it sets,
how its text is read, and the package declaration its choices come from.
That one table builds the parser and ``--help``.  Any flag may come from a
plain ``key = value`` config file (# comments allowed): its lines are read
as ``--key=value`` arguments placed before the command line's, so argparse
checks both alike and an explicit command-line value wins.  A flag left out
takes its StudyConfig default, or emit_table's for ``--format``; the
consistency rules are StudyConfig's own.
"""
from __future__ import annotations

import argparse
import os
import sys
from enum import Enum
from typing import Callable, NamedTuple

from .eig import METHODS
from .fem import DEGREES
from .meshgen import DomainKind
from .study import FORMULATIONS, MESH_FAMILIES, TABLE_FORMATS, StudyConfig, \
    compute_eigenfunction, emit_table, export_eigenfunction, run_study
from .system import CornerStrategy


def _N_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


class _Flag(NamedTuple):
    field: str | None          # StudyConfig field set; None for the CLI's own
    read: Callable = str       # flag text -> value
    choices: tuple | type = ()  # allowed values, or the Enum listing them
    help: str | None = None


_FLAGS = {
    "config": _Flag(None, help="key = value file supplying any flag"),
    "domain": _Flag("domain", DomainKind, DomainKind),
    "mesh": _Flag("mesh", choices=MESH_FAMILIES),
    "formulation": _Flag("formulation", choices=FORMULATIONS),
    "degree": _Flag("degree", int, DEGREES),
    "N": _Flag("N_list", _N_list,
               help="comma-separated division counts, e.g. 5,10,15"),
    "ell": _Flag("ell", float),
    "cu": _Flag("c_u", float),
    "cp": _Flag("c_p", float),
    "corner": _Flag("corner", CornerStrategy, CornerStrategy),
    "nev": _Flag("nev", int),
    "shift": _Flag("shift", float),
    "solver": _Flag("solver", choices=METHODS),
    "seed": _Flag("seed", int),
    "out": _Flag(None, help="write the table here instead of stdout"),
    "format": _Flag(None, choices=TABLE_FORMATS),
    "export-mode": _Flag(None, int,
                         help="also export this eigenfunction index (0 <= k "
                              "< the table's row count) of the largest N"),
}


def _names(flag: _Flag) -> tuple:
    return tuple(str(c.value if isinstance(c, Enum) else c)
                 for c in flag.choices)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maxwell2d",
        description="Nodal finite-element eigenvalue studies for 2D cavities.")
    for key, flag in _FLAGS.items():
        p.add_argument(f"--{key}", choices=_names(flag) or None,
                       help=flag.help)
    return p


def _read_config_file(path: str) -> list:
    """The file's ``key = value`` lines as ``--key=value`` arguments."""
    args = []
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in _FLAGS or key == "config":
                raise ValueError(f"unknown config key {key!r}")
            args.append(f"--{key}={val}")
    return args


def _read(key: str, text: str):
    try:
        return _FLAGS[key].read(text)
    except ValueError:
        raise ValueError(f"invalid value {text!r} for {key!r}") from None


def _parse(argv: list) -> dict:
    """Flag -> value for every flag the config file or the command line
    gives; argparse exits on an unknown flag or a bad choice in either."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        ns = parser.parse_args(_read_config_file(ns.config) + argv)
    texts = {key: getattr(ns, key.replace("-", "_")) for key in _FLAGS}
    return {key: _read(key, text) for key, text in texts.items()
            if text is not None}


def _export_path(opts: dict) -> str | None:
    """The --export-mode file, beside --out or in the working directory."""
    out, mode = opts.get("out"), opts.get("export-mode")
    if mode is not None:
        return (f"{out}.mode{mode}.txt" if out
                else f"eigenfunction_mode{mode}.txt")


def _validate(opts: dict, config: StudyConfig) -> None:
    """The checks only the CLI needs; StudyConfig checked the rest."""
    out, mode = opts.get("out"), opts.get("export-mode")
    if mode is not None:
        rows = len(config.references)
        if not 0 <= mode < rows:
            raise ValueError(f"--export-mode {mode} is not a table mode; "
                             f"need 0 <= k < {rows}, the table's row count")
    for flag, path in (("--out", out), ("--export-mode", _export_path(opts))):
        if not path:
            continue
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path} is a directory")
        folder = os.path.abspath(os.path.dirname(path))
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ValueError(f"cannot write to {folder}: not a writable "
                             "directory")


def cli_main(argv) -> int:
    try:
        opts = _parse(list(argv))
        config = StudyConfig(**{_FLAGS[key].field: value
                                for key, value in opts.items()
                                if _FLAGS[key].field})
        _validate(opts, config)
        table = run_study(config)
        text = emit_table(table, opts["format"]) if "format" in opts \
            else emit_table(table)
        out, mode = opts.get("out"), opts.get("export-mode")
        if out:
            with open(out, "w") as f:
                f.write(text)
            print(f"table written to {out}")
        else:
            sys.stdout.write(text)
        if mode is not None:
            path = _export_path(opts)
            export_eigenfunction(compute_eigenfunction(table, mode), path)
            print(f"eigenfunction {mode} written to {path}")
    except SystemExit as exc:  # argparse: --help, or a bad flag or choice
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface module errors as exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
