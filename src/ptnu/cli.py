"""Batch command-line interface: spectrum tables, wavefunction samples,
cross-verification sweeps, and the small-range limit scan.

All numeric output is deterministic for a given configuration; csv/tsv/json
carry the same formatted values and diagnostics go to stderr only.
`table2` and `limit` need only the closed form, and `wavefunction`
evaluates its samples one float at a time with `math`: numpy and scipy's
LAPACK extension are loaded by `verify` alone, when the oracle first runs,
and scipy itself is never imported.
"""
from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from collections import namedtuple

from .errors import ConfigError, NonFinite, PtnuError
from .nu import checked_record
from .oracle import discretize, lowest_eigenvalues, richardson
from .poschl_teller import (
    PtPotential,
    alpha_zero_limit,
    energy_closed_form,
    energy_via_nu,
    normalized_wavefunction,
    spectrum_table,
)

DEFAULT_ALPHAS = (1.2, 0.8, 0.4, 0.2, 0.02, 0.002)
# Largest relative deviation of the template root from the closed form (ROADMAP aim 2).
NU_BAND = 1e-9
ORACLE_BAND = 1e-4
# Largest oracle error allowed, as a fraction of the gap E_{n+1} - E_n.
ORACLE_SPACING = 1e-3
FORMATS = ("csv", "tsv", "json")
# Ceilings on what one run may ask for, far above any use in the paper, so
# that every command ends within seconds.  MAX_POINTS bounds the samples of
# wavefunction and the grid of every command.  verify's time per alpha,
# measured, grows as (nmax + 2) * grid_points: a grid costs about as much as
# a level.  wavefunction's grows as (n + 1) * points: each sample runs the n
# steps of the Jacobi recurrence in the interpreter.
MAX_NMAX = 1000
MAX_ALPHAS = 100
MAX_POINTS = 100_000
MAX_VERIFY_WORK = 4_000_000
MAX_WAVEFUNCTION_WORK = 10_000_000
MAX_CONFIG_CHARS = 65_536


def _parse_alphas(raw: str) -> tuple[float, ...]:
    values = tuple(float(x.strip()) for x in raw.split(",") if x.strip())
    if not values:
        raise ValueError(f"empty list {raw!r}")
    return values


# One row per setting every command shares.  Config-file key, which is the
# flag with "_" written "-": (RunConfig field, parser of its text, default,
# help text, metavar).  RunConfig, the flags and the file lines all come
# from this table, and RunConfig.__new__ checks every field.
_KEYS = {
    "m": ("m", float, 10.0, "mass (fm^-1)", None),
    "v1": ("v1", float, 5.0, "first well depth (fm^-1)", None),
    "v2": ("v2", float, 3.0, "second well depth (fm^-1)", None),
    "alpha": ("alphas", _parse_alphas, DEFAULT_ALPHAS, "comma-separated range parameters (fm^-1)", "LIST"),
    "nmax": ("n_max", int, 6, "highest quantum number", None),
    "grid_points": ("grid_points", int, 2000, "finite-difference interior grid size", None),
    "format": ("format", str, "csv", None, "{" + ",".join(FORMATS) + "}"),
    "precision": ("precision", int, 8, "decimal digits [1, 17]", None),
}


class RunConfig(checked_record("RunConfig", [row[0] for row in _KEYS.values()],
                               [row[2] for row in _KEYS.values()])):
    """Settings of one run, an immutable tuple with named fields; every
    field has a default, and `_replace` returns a copy with some changed.
    Building one, directly or through `_make` and `_replace`, raises
    ConfigError unless every field is in range."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(0 < v < math.inf for v in (self.m, self.v1, self.v2)):
            raise ConfigError(f"m, v1, v2 must be finite and positive, got {self.m}, {self.v1}, {self.v2}")
        if not 0 < len(self.alphas) <= MAX_ALPHAS or not all(0 < a < math.inf for a in self.alphas):
            raise ConfigError(f"alphas must be a list of 1 to {MAX_ALPHAS} finite positive values, "
                              f"got {self.alphas}")
        if not 0 <= self.n_max <= MAX_NMAX:
            raise ConfigError(f"nmax must be in [0, {MAX_NMAX}], got {self.n_max}")
        if not 1000 <= self.grid_points <= MAX_POINTS:
            raise ConfigError(f"grid_points must be in [1000, {MAX_POINTS}], got {self.grid_points}")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.format!r}")
        if not (1 <= self.precision <= 17):
            raise ConfigError(f"precision must be in [1, 17], got {self.precision}")
        return self


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise NonFinite(f"result {value} is not finite; the inputs are out of floating-point range")
    return value


def _fmt(value: float, precision: int) -> str:
    return f"{_finite(value):.{precision}f}"


def _fmt_dev(value: float, precision: int) -> str:
    return f"{_finite(value):.{precision}e}"


def _note(line: str) -> None:
    """One diagnostic line on stderr, dropped when stderr is closed or
    refuses it: `print(file=None)` would write it to stdout."""
    try:
        if sys.stderr is not None:
            print(line, file=sys.stderr)
    except OSError:
        pass


def _emit(header: list[str], rows: list[list[str]], fmt: str) -> None:
    """Write one rectangular table of pre-formatted number strings to
    stdout and flush it, so that a reader who left early or a full or
    closed stdout raises an OSError inside `main`.  Python sets stdout to
    None when fd 1 is closed at start; that raises EBADF here.

    Every cell is an integer, a validated finite float or a fixed or
    scientific rendering of one, so json carries each as a raw number and
    every format holds byte-identical values.
    """
    out = sys.stdout
    if out is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    if fmt == "json":
        lines = ["  {" + ", ".join(f'"{key}": {cell}' for key, cell in zip(header, row)) + "}"
                 for row in rows]
        out.write("[\n" + ",\n".join(lines) + "\n]\n")
    else:
        sep = "," if fmt == "csv" else "\t"
        out.write(sep.join(header) + "\n")
        for row in rows:
            out.write(sep.join(row) + "\n")
    out.flush()


def cmd_table2(config: RunConfig) -> int:
    """Spectrum grid: one row per n, one column per alpha."""
    table = spectrum_table(config.m, config.v1, config.v2, list(config.alphas), config.n_max)
    if config.format == "json":
        rows = [[str(n), str(alpha), _fmt(energy, config.precision)]
                for n, row in enumerate(table)
                for alpha, energy in zip(config.alphas, row)]
        _emit(["n", "alpha", "energy"], rows, "json")
        return 0
    header = ["n"] + [f"alpha={a}" for a in config.alphas]
    rows = [[str(n)] + [_fmt(e, config.precision) for e in row] for n, row in enumerate(table)]
    _emit(header, rows, config.format)
    return 0


def cmd_wavefunction(config: RunConfig, n: int, points: int) -> int:
    """Sample the normalized state n of the first configured alpha:
    columns r, R/r (the radial factor of the full wavefunction), and R."""
    if not (0 <= n <= config.n_max):
        raise ConfigError(f"need 0 <= n <= nmax={config.n_max}, got n={n}")
    if not 2 <= points <= MAX_POINTS:
        raise ConfigError(f"need 2 <= points <= {MAX_POINTS}, got {points}")
    if (n + 1) * points > MAX_WAVEFUNCTION_WORK:
        raise ConfigError(f"need (n + 1) * points <= {MAX_WAVEFUNCTION_WORK}, got {(n + 1) * points}")
    p = PtPotential(config.m, config.v1, config.v2, config.alphas[0])
    _, r_fn = normalized_wavefunction(p, n)
    r = [p.r_max * float(i) / (points + 1) for i in range(1, points + 1)]
    rows = [[_fmt(x, config.precision), _fmt(y / x, config.precision), _fmt(y, config.precision)]
            for x, y in zip(r, map(r_fn, r))]
    _emit(["r", "R_over_r", "R"], rows, config.format)
    return 0


class Cell(namedtuple("Cell", "n alpha e_closed e_nu e_oracle nu_dev oracle_dev failed")):
    """One certified level: the columns `verify` prints, in print order, then
    the names of the gates it failed, empty when every gate held; an
    immutable tuple with named fields."""

    __slots__ = ()


def certify(p: PtPotential, count: int, n_points: int) -> list[Cell]:
    """Closed form vs template root vs finite-difference oracle per level.

    The oracle solves on N and 2N+1 interior points and Richardson-combines
    the pair; a cell fails when any deviation leaves its band (NU_BAND for
    the root, ORACLE_BAND for the oracle), or when the oracle misses the
    closed form by more than ORACLE_SPACING of the gap to the next level.
    """
    coarse = lowest_eigenvalues(discretize(p, n_points), count)
    fine = lowest_eigenvalues(discretize(p, 2 * n_points + 1), count)
    oracle_levels = [richardson(c, f) / (2.0 * p.m) for c, f in zip(coarse, fine)]
    ladder = [energy_closed_form(p, n) for n in range(count + 1)]
    cells = []
    for n, (e_or, e_closed, e_next) in enumerate(zip(oracle_levels, ladder, ladder[1:])):
        e_nu = energy_via_nu(p, n)
        nu_dev = abs(e_nu - e_closed) / abs(e_closed)
        oracle_dev = abs(e_or - e_closed) / abs(e_closed)
        gates = (("NU_BAND", nu_dev > NU_BAND), ("ORACLE_BAND", oracle_dev > ORACLE_BAND),
                 ("ORACLE_SPACING", abs(e_or - e_closed) > ORACLE_SPACING * (e_next - e_closed)))
        failed = tuple(name for name, missed in gates if missed)
        cells.append(Cell(n, p.alpha, e_closed, e_nu, e_or, nu_dev, oracle_dev, failed))
    return cells


def cmd_verify(config: RunConfig) -> int:
    """`certify` every configured alpha; exit 1 when any cell fails, with
    one line on stderr per failed cell."""
    count = config.n_max + 1
    if count > config.grid_points:
        raise ConfigError(f"verify needs nmax + 1 <= grid_points, got nmax={config.n_max}, "
                          f"grid_points={config.grid_points}")
    work = (count + 1) * config.grid_points * len(config.alphas)
    if work > MAX_VERIFY_WORK:
        raise ConfigError(f"verify needs (nmax + 2) * grid_points * (number of alphas) <= "
                          f"{MAX_VERIFY_WORK}, got {work}")
    cells = [cell for alpha in config.alphas
             for cell in certify(PtPotential(config.m, config.v1, config.v2, alpha),
                                 count, config.grid_points)]
    rows = [[str(c.n), str(c.alpha)]
            + [_fmt(e, config.precision) for e in (c.e_closed, c.e_nu, c.e_oracle)]
            + [_fmt_dev(c.nu_dev, 2), _fmt_dev(c.oracle_dev, 2)] for c in cells]
    _emit(["n", "alpha", "e_closed", "e_nu", "e_oracle", "nu_dev", "oracle_dev"], rows,
          config.format)
    failed = [c for c in cells if c.failed]
    for c in failed:
        _note(f"verify: n={c.n} alpha={c.alpha} fails {', '.join(c.failed)}")
    return 1 if failed else 0


def cmd_limit(config: RunConfig) -> int:
    """Ground-state energy against the small-range limit for each alpha."""
    limit = alpha_zero_limit(PtPotential(config.m, config.v1, config.v2, config.alphas[0]))
    rows = []
    for alpha in config.alphas:
        p = PtPotential(config.m, config.v1, config.v2, alpha)
        energy = energy_closed_form(p, 0)
        rows.append([str(alpha), _fmt(energy, config.precision),
                     _fmt_dev(abs(energy - limit), 6), _fmt(limit, config.precision)])
    _emit(["alpha", "energy", "abs_deviation", "limit"], rows, config.format)
    return 0


def _parse(values: dict, key: str, raw: str, where: str = "") -> None:
    field, parse = _KEYS[key][:2]
    try:
        values[field] = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}bad value for {key}: {exc}") from exc


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as handle:  # a leading BOM is dropped
            text = handle.read(MAX_CONFIG_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if len(text) > MAX_CONFIG_CHARS:
        raise ConfigError(f"config file {path} is longer than {MAX_CONFIG_CHARS} characters")
    values = {}
    for line_no, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        _parse(values, key, raw.strip(), f"{path}:{line_no}: ")
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    """File entries, then flags over them, as a checked RunConfig."""
    values = {} if args.config is None else _load_config_file(args.config)
    for key in _KEYS:
        raw = getattr(args, key)
        if raw is not None:
            _parse(values, key, raw)
    return RunConfig()._replace(**values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first `main` call;
    parsing leaves it unchanged, so every later call reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    for key, (_, _, _, text, metavar) in _KEYS.items():
        common.add_argument("--" + key.replace("_", "-"), help=text, metavar=metavar)
    common.add_argument("--config", metavar="PATH", help="key=value file; flags override its entries")

    # exit_on_error=False: a refused flag value reaches main as an ArgumentError
    parser = argparse.ArgumentParser(
        prog="ptnu", exit_on_error=False,
        description="Bound states of the trigonometric Poschl-Teller well: "
                    "closed-form spectra, wavefunctions, and cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("table2", "energy levels, one row per n and one column per alpha"),
            ("wavefunction", "sample a normalized radial state (first alpha of the list)"),
            ("verify", "closed form vs template root vs finite-difference oracle"),
            ("limit", "ground-state energy against the small-range limit")):
        sub.add_parser(name, parents=[common], exit_on_error=False, help=text)
    wf = sub.choices["wavefunction"]
    wf.add_argument("--n", type=int, default=0, help="quantum number of the state")
    wf.add_argument("--points", type=int, default=200, help="number of interior samples")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _build_config(args)
        if args.command == "table2":
            return cmd_table2(config)
        if args.command == "wavefunction":
            return cmd_wavefunction(config, args.n, args.points)
        if args.command == "verify":
            return cmd_verify(config)
        return cmd_limit(config)
    except (argparse.ArgumentError, PtnuError) as exc:
        _note(f"error: {exc}")
        return 2
    except OSError as exc:
        # stdout failed: the rest goes to devnull, so that the flush at exit
        # cannot raise again.  A reader who left early gets 141, as on
        # SIGPIPE; a closed or full stdout gets EX_IOERR (sysexits.h)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        if isinstance(exc, BrokenPipeError):
            return 141
        _note(f"error: cannot write output: {exc}")
        return 74


if __name__ == "__main__":
    sys.exit(main())
