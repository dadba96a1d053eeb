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

from .constants import beta_star
from .expressions import ExpressionError, parse_expression
from .fields import BallRegion, FieldError, GridSpec, require_inside, sample
from .fixtures import REGRESSION_GEHRING_BUDGET
from .solver import ProblemSpec, SolverError

__all__ = ["ConfigError", "RunConfig", "load_config"]

KNOWN_AUDITS = ("pointwise", "quasiregularity", "caccioppoli")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class RunConfig:
    problem: ProblemSpec
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


def _floats(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split())
    except ValueError as err:
        raise ConfigError(f"expected numbers, got {text!r}") from err


def _ints(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split())
    except ValueError as err:
        raise ConfigError(f"expected integers, got {text!r}") from err


def _unquote(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    return text


def load_config(path: str) -> RunConfig:
    """Load and validate a run configuration file.

    Expressions must parse, the eps schedule must be strictly decreasing,
    the audit and stretch exponent lists must not be empty, the stretch
    exponents must be finite, ``kappa``, ``c_target`` and a given
    ``gehring_r_max`` must be positive and finite, every audited stretch
    exponent must clear the critical exponent of the sampled coefficient
    window, and with the Caccioppoli audit listed ``ball_radii`` must not be
    empty and every ball's three-quarter scaling must sit inside the grid
    margin; violations raise :class:`ConfigError`.
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

    if "problem" not in parser:
        raise ConfigError("missing [problem] section")
    problem = parser["problem"]
    try:
        dimension = int(problem.get("dimension", "2"))
        lo = _floats(problem.get("lo", "0 " * dimension))
        hi = _floats(problem.get("hi", "1 " * dimension))
        points = _ints(problem.get("points", "65 " * dimension))
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

    schedule = _floats(problem.get("eps_schedule", "0.01"))
    if not schedule or any(e <= 0 for e in schedule):
        raise ConfigError("eps_schedule must list positive values")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("eps_schedule must be strictly decreasing")
    try:
        spec = ProblemSpec(
            grid=grid,
            p_expr=p_expr,
            f_expr=f_expr,
            boundary_expr=boundary_expr,
            eps=schedule[0],
        )
    except SolverError as err:
        raise ConfigError(str(err)) from err

    audit = parser["audit"] if "audit" in parser else {}
    audits = tuple(audit.get("audits", "pointwise quasiregularity caccioppoli").split())
    if not audits:
        raise ConfigError("audits must name at least one audit")
    for name in audits:
        if name not in KNOWN_AUDITS:
            raise ConfigError(f"unknown audit {name!r}; known: {', '.join(KNOWN_AUDITS)}")
    betas = _floats(audit.get("betas", "0"))
    if not betas:
        raise ConfigError("betas must list at least one stretch exponent")
    if not all(math.isfinite(beta) for beta in betas):
        raise ConfigError(f"betas must be finite, got {' '.join(map(str, betas))}")
    kappa = float(audit.get("kappa", "10"))
    ball_center = _floats(audit.get("ball_center", " ".join("0.5" for _ in range(dimension))))
    ball_radii = _floats(audit.get("ball_radii", "0.2"))
    if "caccioppoli" in audits:
        if not ball_radii:
            raise ConfigError("ball_radii must list at least one radius for the caccioppoli audit")
        try:
            for radius in ball_radii:
                require_inside(BallRegion(ball_center, radius).scaled(0.75), grid)
        except FieldError as err:
            raise ConfigError(f"bad Caccioppoli ball: {err}") from err
    c_target = float(audit.get("c_target", str(REGRESSION_GEHRING_BUDGET)))
    r_max_text = audit.get("gehring_r_max", "")
    gehring_r_max = float(r_max_text) if r_max_text else None
    positive = [("kappa", kappa), ("c_target", c_target)]
    if gehring_r_max is not None:
        positive.append(("gehring_r_max", gehring_r_max))
    for name, value in positive:
        if not (value > 0 and math.isfinite(value)):  # NaN fails too
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    seed = int(audit.get("seed", "0"))

    # admissibility of every audited stretch exponent, checked up front
    # against the window of the sampled coefficient
    try:
        p_field = sample(p_expr, grid)
    except FieldError as err:
        raise ConfigError(f"cannot sample p: {err}") from err
    t_plus = float(p_field.values.max())
    if float(p_field.values.min()) <= 1.0:
        raise ConfigError("sampled p leaves the admissible window (min p <= 1)")
    critical = beta_star(dimension, t_plus)
    for beta in betas:
        if beta <= critical:
            raise ConfigError(
                f"beta = {beta} is inadmissible: must exceed beta_star = {critical:.6g} "
                f"for t_plus = {t_plus:.6g}"
            )
        if beta < 0 and "quasiregularity" in audits:
            raise ConfigError("the distortion audit needs beta >= 0")

    output = parser["output"] if "output" in parser else {}
    directory = output.get("directory", "out")

    return RunConfig(
        problem=spec,
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
