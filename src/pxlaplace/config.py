"""Plain-text run configuration.

Files use ``[section]`` headers with ``key = value`` lines (parsed with the
stdlib configparser, keys case-sensitive).  Expressions are quoted strings;
lists are whitespace separated.  See the README for the full grammar and an
annotated example.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

from .audits import AuditError, _cutoff_box
from .constants import beta_star
from .expressions import ExpressionError, parse_expression
from .fields import BallRegion, FieldError, GridSpec, sample
from .fixtures import REGRESSION_GEHRING_BUDGET
from .solver import DiscreteProblem, SolverError, _check_schedule, _clip_radius, _discretized

__all__ = ["ConfigError", "RunConfig", "load_config"]

KNOWN_AUDITS = ("pointwise", "quasiregularity", "caccioppoli")

#: The sections a configuration may have and the keys each may set.
KNOWN_KEYS = {
    "problem": ("dimension", "lo", "hi", "points", "p", "f", "boundary", "eps_schedule"),
    "audit": (
        "audits", "betas", "kappa", "ball_center", "ball_radii", "c_target", "gehring_r_max", "seed"
    ),
    "output": ("directory",),
}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class RunConfig:
    problem: DiscreteProblem
    schedule: tuple
    audits: tuple
    betas: tuple
    kappa: float
    ball_center: tuple
    ball_radii: tuple
    c_target: float
    gehring_r_max: Optional[float]
    seed: int
    directory: str
    raw_text: str


def _numbers(section, key: str, default: str, kind=float) -> tuple:
    """The whitespace-separated values of ``key``, each parsed by ``kind``."""
    text = section.get(key, default)
    try:
        return tuple(kind(part) for part in text.split())
    except ValueError as err:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{key} must list {noun}, got {text!r}") from err


def _number(section, key: str, default: str, kind=float):
    """The one value of ``key``, parsed by ``kind``."""
    text = section.get(key, default)
    try:
        return kind(text)
    except ValueError as err:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {text!r}") from err


def _unquote(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    return text


def load_config(path: str) -> RunConfig:
    """Load and validate a run configuration file.

    Only the sections and keys of ``KNOWN_KEYS`` may appear.  Expressions
    must parse, the grid must be fine enough for the continuation to
    mollify, the eps schedule must be positive and strictly decreasing,
    the audit and stretch exponent lists must not be empty, the stretch
    exponents must be finite, ``kappa``, ``c_target`` and a given
    ``gehring_r_max`` must be positive and finite, ``p``, ``f`` and the
    boundary data must sample on the grid, the sampled ``p`` must exceed 1
    at every node, every audited stretch exponent must clear the critical
    exponent of the sampled coefficient window, and with the Caccioppoli
    audit listed ``ball_radii`` must not be empty and every ball's
    three-quarter scaling must sit inside the grid margin and hold a node
    strictly inside; violations raise :class:`ConfigError`.  The
    distortion audit's own rules (``beta >= 0``, ``f = 0``) are checked by
    ``pxlaplace audit``, which alone runs it.

    The three expressions are sampled here once.  ``RunConfig.problem`` is
    the raw problem built from those fields, at the first eps of the
    schedule, as :func:`pxlaplace.solver.build_problem` builds it; the eps
    continuation and the audit's ``f = 0`` rule read it and sample nothing.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw_text = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    try:
        parser.read_string(raw_text, source=path)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config: {err}") from err
    # a misspelled key would silently fall back to its default; the keys of
    # a [DEFAULT] section show up in every section and are checked there
    for name in parser.sections():
        if name not in KNOWN_KEYS:
            raise ConfigError(f"unknown section [{name}]; known: {', '.join(KNOWN_KEYS)}")
        for key in parser[name]:
            if key not in KNOWN_KEYS[name]:
                known = ", ".join(KNOWN_KEYS[name])
                raise ConfigError(f"unknown key {key!r} in [{name}]; known: {known}")

    if "problem" not in parser:
        raise ConfigError("missing [problem] section")
    problem = parser["problem"]
    dimension = _number(problem, "dimension", "2", int)
    lo = _numbers(problem, "lo", "0 " * dimension)
    hi = _numbers(problem, "hi", "1 " * dimension)
    points = _numbers(problem, "points", "65 " * dimension, int)
    try:
        grid = GridSpec(lo=lo, hi=hi, shape=points)
    except (FieldError, ValueError) as err:
        raise ConfigError(f"bad grid: {err}") from err
    if grid.dimension != dimension:
        raise ConfigError("grid shape does not match the declared dimension")

    try:
        p_expr = parse_expression(_unquote(problem.get("p", "2")), dimension)
        f_expr = parse_expression(_unquote(problem.get("f", "0")), dimension)
        boundary_expr = parse_expression(_unquote(problem.get("boundary", "0")), dimension)
    except ExpressionError as err:
        raise ConfigError(f"bad expression: {err}") from err

    try:
        schedule = _check_schedule(_numbers(problem, "eps_schedule", "0.01"))
        _clip_radius(schedule[0], grid)  # raises where the continuation could not mollify
    except SolverError as err:
        raise ConfigError(str(err)) from err

    audit = parser["audit"] if "audit" in parser else {}
    audits = tuple(audit.get("audits", "pointwise quasiregularity caccioppoli").split())
    if not audits:
        raise ConfigError("audits must name at least one audit")
    for name in audits:
        if name not in KNOWN_AUDITS:
            raise ConfigError(f"unknown audit {name!r}; known: {', '.join(KNOWN_AUDITS)}")
    betas = _numbers(audit, "betas", "0")
    if not betas:
        raise ConfigError("betas must list at least one stretch exponent")
    if not all(math.isfinite(beta) for beta in betas):
        raise ConfigError(f"betas must be finite, got {' '.join(map(str, betas))}")
    kappa = _number(audit, "kappa", "10")
    ball_center = _numbers(audit, "ball_center", " ".join("0.5" for _ in range(dimension)))
    ball_radii = _numbers(audit, "ball_radii", "0.2")
    if "caccioppoli" in audits:
        if not ball_radii:
            raise ConfigError("ball_radii must list at least one radius for the caccioppoli audit")
        try:
            for radius in ball_radii:
                _cutoff_box(BallRegion(ball_center, radius), grid)
        except (FieldError, AuditError) as err:
            raise ConfigError(f"bad Caccioppoli ball: {err}") from err
    c_target = _number(audit, "c_target", str(REGRESSION_GEHRING_BUDGET))
    gehring_r_max = _number(audit, "gehring_r_max", "") if "gehring_r_max" in audit else None
    positive = [("kappa", kappa), ("c_target", c_target)]
    if gehring_r_max is not None:
        positive.append(("gehring_r_max", gehring_r_max))
    for name, value in positive:
        if not (value > 0 and math.isfinite(value)):  # NaN fails too
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    seed = _number(audit, "seed", "0", int)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")

    sampled = []
    for name, expr in (("p", p_expr), ("f", f_expr), ("boundary", boundary_expr)):
        try:
            sampled.append(sample(expr, grid))
        except FieldError as err:
            raise ConfigError(f"cannot sample {name}: {err}") from err
    p_field, f_field, boundary = sampled
    try:
        data = _discretized(schedule[0], boundary, p_field, f_field, u0=boundary)
    except SolverError as err:
        raise ConfigError(str(err)) from err
    # admissibility of every audited stretch exponent, checked up front
    # against the window of the sampled coefficient
    t_plus = data.window.t_plus
    critical = beta_star(dimension, t_plus)
    for beta in betas:
        if beta <= critical:
            raise ConfigError(
                f"beta = {beta} is inadmissible: must exceed beta_star = {critical:.6g} "
                f"for t_plus = {t_plus:.6g}"
            )

    output = parser["output"] if "output" in parser else {}
    directory = output.get("directory", "out")

    return RunConfig(
        problem=data,
        schedule=schedule,
        audits=audits,
        betas=betas,
        kappa=kappa,
        ball_center=ball_center,
        ball_radii=ball_radii,
        c_target=c_target,
        gehring_r_max=gehring_r_max,
        seed=seed,
        directory=directory,
        raw_text=raw_text,
    )
