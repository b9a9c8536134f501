"""Command-line front end for convergence campaigns.

Any flag may come from a plain ``key = value`` config file (# comments
allowed); explicit command-line values win over file values.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from enum import Enum

from .eig import METHODS
from .meshgen import DomainKind, DomainSpec
from .study import DEFAULT_NEV, StudyConfig, compute_eigenfunction, \
    emit_table, export_eigenfunction, reference_values, run_study
from .system import CornerStrategy, TipStrategy

_CHOICES = {
    "domain": ("square", "lshape", "crack"),
    "mesh": ("uniform", "cc", "ps", "cc-graded"),
    "formulation": ("sg", "ag", "osgs"),
    "corner": ("both-zero", "free", "bisector"),
    "tip": ("free", "both-zero"),
    "solver": METHODS,
    "format": ("csv", "md"),
    "stab-h": ("auto", "diameter", "spacing"),
}

# Flag name -> StudyConfig field for the flags whose default is the field's.
_STUDY_FIELDS = {
    "degree": "degree",
    "mu": "mu",
    "ell": "ell",
    "cu": "c_u",
    "cp": "c_p",
    "corner": "corner",
    "tip": "tip",
    "shift": "shift",
    "zero-tol": "zero_tol",
    "solver": "solver",
    "grading-exponent": "grading_exponent",
    "seed": "seed",
    "stab-h": "stab_length",
}


def _flag_value(value):
    return value.value if isinstance(value, Enum) else value


_FIELD_DEFAULTS = {f.name: f.default for f in dataclasses.fields(StudyConfig)}
_DEFAULTS = {
    "domain": "square",
    "mesh": "cc",
    "formulation": "osgs",
    "N": "5,10,15,20,25",
    "format": "md",
    **{key: _flag_value(_FIELD_DEFAULTS[name])
       for key, name in _STUDY_FIELDS.items()},
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maxwell2d",
        description="Nodal finite-element eigenvalue studies for 2D cavities.")
    p.add_argument("--config", help="key = value file supplying any flag")
    p.add_argument("--domain", choices=_CHOICES["domain"])
    p.add_argument("--mesh", choices=_CHOICES["mesh"])
    p.add_argument("--formulation", choices=_CHOICES["formulation"])
    p.add_argument("--degree", type=int, choices=(1, 2))
    p.add_argument("--N", help="comma-separated division counts, e.g. 5,10,15")
    p.add_argument("--mu", type=float)
    p.add_argument("--ell", type=float)
    p.add_argument("--cu", type=float)
    p.add_argument("--cp", type=float)
    p.add_argument("--corner", choices=_CHOICES["corner"])
    p.add_argument("--tip", choices=_CHOICES["tip"])
    p.add_argument("--nev", type=int)
    p.add_argument("--shift", type=float)
    p.add_argument("--zero-tol", dest="zero_tol", type=float)
    p.add_argument("--solver", choices=_CHOICES["solver"])
    p.add_argument("--grading-exponent", dest="grading_exponent", type=float)
    p.add_argument("--stab-h", dest="stab_h", choices=_CHOICES["stab-h"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the table here instead of stdout")
    p.add_argument("--format", choices=_CHOICES["format"])
    p.add_argument("--export-mode", dest="export_mode", type=int,
                   help="also export this eigenfunction index (0 <= k < "
                        "the table's row count) of the largest N")
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


_FLOAT_KEYS = {"mu", "ell", "cu", "cp", "shift", "zero-tol", "grading-exponent"}
_INT_KEYS = {"degree", "nev", "seed", "export-mode"}


def _coerce(key: str, val: str):
    if key in _FLOAT_KEYS:
        return float(val)
    if key in _INT_KEYS:
        return int(val)
    if key in _CHOICES and val not in _CHOICES[key]:
        raise ValueError(f"invalid value {val!r} for {key!r}; choose from "
                         f"{', '.join(_CHOICES[key])}")
    return val


def _merge(cli_ns: argparse.Namespace, file_vals: dict) -> dict:
    merged = dict(_DEFAULTS)
    known = set(_DEFAULTS) | {"nev", "out", "export-mode"}
    for key, val in file_vals.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, val)
    for key in known:
        attr = key.replace("-", "_")
        val = getattr(cli_ns, attr, None)
        if val is not None:
            merged[key] = val
    return merged


def _N_list(opts: dict) -> tuple:
    return tuple(int(tok) for tok in str(opts["N"]).split(",") if tok.strip())


def _validate(opts: dict, explicit: set) -> None:
    domain = opts["domain"]
    if domain == "crack" and any(N % 2 for N in _N_list(opts)):
        raise ValueError("--domain crack needs even --N values")
    if opts["corner"] == "bisector" and domain != "lshape":
        raise ValueError("--corner bisector needs --domain lshape")
    if "tip" in explicit and opts["tip"] != "free" and domain != "crack":
        raise ValueError("--tip settings apply to --domain crack only")
    if opts["mesh"] == "cc-graded" and domain != "crack":
        raise ValueError("--mesh cc-graded needs --domain crack")
    if "grading-exponent" in explicit and opts["mesh"] != "cc-graded":
        raise ValueError("--grading-exponent needs --mesh cc-graded")
    nev = opts.get("nev")
    if nev is not None and nev < 1:
        raise ValueError("--nev must be at least 1")
    mode = opts.get("export-mode")
    if mode is not None:
        spec = DomainSpec(DomainKind(domain))
        rows = len(reference_values(
            spec, DEFAULT_NEV[spec.kind] if nev is None else nev))
        if not 0 <= mode < rows:
            raise ValueError(f"--export-mode {mode} is not a table mode; "
                             f"need 0 <= k < {rows}, the table's row count")


def _to_study_config(opts: dict) -> StudyConfig:
    fields = {name: opts[key] for key, name in _STUDY_FIELDS.items()}
    fields["corner"] = CornerStrategy(fields["corner"])
    fields["tip"] = TipStrategy(fields["tip"])
    return StudyConfig(
        domain=DomainSpec(DomainKind(opts["domain"])),
        mesh=opts["mesh"],
        formulation=opts["formulation"],
        N_list=_N_list(opts),
        nev=opts.get("nev"),
        **fields,
    )


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        file_vals = _read_config_file(ns.config) if ns.config else {}
        explicit = {key for key in _DEFAULTS
                    if getattr(ns, key.replace("-", "_"), None) is not None}
        explicit |= set(file_vals)
        opts = _merge(ns, file_vals)
        _validate(opts, explicit)
        config = _to_study_config(opts)
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
            fld, mesh = compute_eigenfunction(table, mode)
            path = (f"{opts['out']}.mode{mode}.txt" if opts.get("out")
                    else f"eigenfunction_mode{mode}.txt")
            export_eigenfunction(fld, mesh, path)
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


if __name__ == "__main__":
    main()
