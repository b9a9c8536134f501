"""Command-line front end for convergence campaigns.

Every flag is declared once, in ``_FLAGS``: the StudyConfig field it sets,
how its text is read, and the package declaration its choices come from.
That one table builds the parser and ``--help`` and reads config files.
Any flag may come from a plain ``key = value`` config file (# comments
allowed); explicit command-line values win over file values.  A flag left
out takes its StudyConfig default, and the consistency rules are
StudyConfig's own.
"""
from __future__ import annotations

import argparse
import sys
from enum import Enum
from typing import Callable, NamedTuple

from .eig import METHODS
from .fem import DEGREES
from .meshgen import DomainKind
from .study import FORMULATIONS, MESH_FAMILIES, TABLE_FORMATS, StudyConfig, \
    compute_eigenfunction, emit_table, export_eigenfunction, \
    reference_values, run_study
from .system import CornerStrategy


def _N_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


class _Flag(NamedTuple):
    field: str | None          # StudyConfig field set; None for the CLI's own
    read: Callable = str       # flag text -> value
    choices: tuple | type = ()  # allowed values, or the Enum listing them
    default: str | None = None  # for what StudyConfig leaves to the caller
    help: str | None = None


_FLAGS = {
    "config": _Flag(None, help="key = value file supplying any flag"),
    "domain": _Flag("domain", DomainKind, DomainKind, "square"),
    "mesh": _Flag("mesh", choices=MESH_FAMILIES, default="cc"),
    "formulation": _Flag("formulation", choices=FORMULATIONS, default="osgs"),
    "degree": _Flag("degree", int, DEGREES),
    "N": _Flag("N_list", _N_list, default="5,10,15,20,25",
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
    "format": _Flag(None, choices=TABLE_FORMATS, default="md"),
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


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _read(key: str, text: str):
    flag = _FLAGS[key]
    names = _names(flag)
    if names and text not in names:
        raise ValueError(f"invalid value {text!r} for {key!r}; choose from "
                         f"{', '.join(names)}")
    try:
        return flag.read(text)
    except ValueError:
        raise ValueError(f"invalid value {text!r} for {key!r}") from None


def _options(ns: argparse.Namespace, file_vals: dict) -> dict:
    """Flag -> value for every flag given or defaulted by the CLI; the
    command line overrides the file, the file the CLI defaults."""
    texts = {key: flag.default for key, flag in _FLAGS.items()
             if flag.default is not None}
    for key, text in file_vals.items():
        if key not in _FLAGS or key == "config":
            raise ValueError(f"unknown config key {key!r}")
        texts[key] = text
    for key in _FLAGS:
        text = getattr(ns, key.replace("-", "_"))
        if text is not None:
            texts[key] = text
    return {key: _read(key, text) for key, text in texts.items()}


def _validate(opts: dict, config: StudyConfig) -> None:
    """The checks only the CLI needs; StudyConfig checked the rest."""
    mode = opts.get("export-mode")
    if mode is not None:
        rows = len(reference_values(config.domain, config.nev_effective))
        if not 0 <= mode < rows:
            raise ValueError(f"--export-mode {mode} is not a table mode; "
                             f"need 0 <= k < {rows}, the table's row count")


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = _options(ns, _read_config_file(ns.config) if ns.config else {})
        config = StudyConfig(**{_FLAGS[key].field: value
                                for key, value in opts.items()
                                if _FLAGS[key].field})
        _validate(opts, config)
        table = run_study(config)
        text = emit_table(table, opts["format"])
        if opts.get("out"):
            with open(opts["out"], "w") as f:
                f.write(text)
            print(f"table written to {opts['out']}")
        else:
            sys.stdout.write(text)
        mode = opts.get("export-mode")
        if mode is not None:
            fld = compute_eigenfunction(table, mode)
            path = (f"{opts['out']}.mode{mode}.txt" if opts.get("out")
                    else f"eigenfunction_mode{mode}.txt")
            export_eigenfunction(fld, path)
            print(f"eigenfunction {mode} written to {path}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface module errors as exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


# `python -m maxwell2d.cli` still runs, though runpy warns that the package
# imported this module first; `python -m maxwell2d` runs without the warning
if __name__ == "__main__":
    main()
