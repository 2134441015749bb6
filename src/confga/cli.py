"""Command line front end.

    ga eval EXPR                         evaluate an expression
    ga transform --scene F --versor S    act on every object in a scene
    ga classify --scene F                name each object in a scene
    ga train --versor S                  fit a geometric neuron to a versor

Exit codes: 0 on success, 2 for usage and expression syntax errors, and
1 for domain errors (degenerate constructions, parity mismatches,
diverged training, and similar). The GA_TOLERANCE environment variable
overrides the relative tolerance for the command and must be a number
>= 0 and < 1, a number below 2**-43 acting as 2**-43 (`tolerance.scope`); a
scene's "tolerance" section overrides that while the scene is in use.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections import ChainMap
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps writes for a str
from pathlib import Path

import click
import numpy as np

from . import expr, tolerance
from .algebra import format_coeff
from .conformal import classify_batch
from .errors import DomainError, GAError, ParseError, RowRoundingError
from .neuron import PARITIES, TrainConfig, generate_dataset, new_neuron
from .neuron import train as train_neuron
from .scene import Scene, Section, classification_to_json, mv_entries, read_scene, scene_to_json
from .versor import CONVENTIONS, MODES, apply, compose

_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)


def _finite(ctx, param, value: float) -> float:
    if not math.isfinite(value):
        raise click.BadParameter(f"must be a finite number, got {value!r}")
    return value


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParseError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except GAError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main():
    """Conformal geometric algebra: evaluate, transform, classify, train."""
    raw = os.environ.get("GA_TOLERANCE")
    if raw is None:
        return
    try:
        # holds until the command ends, whether it returns or raises
        click.get_current_context().with_resource(tolerance.scope(float(raw)))
    except ValueError:  # not a number, or scope refused it
        raise click.UsageError(f"GA_TOLERANCE must be {tolerance.RANGE}, got {raw!r}") from None


@main.command("eval", context_settings={"ignore_unknown_options": True})
@click.argument("expression")
@_FORMAT
@_guarded
def eval_cmd(expression: str, fmt: str):
    """Evaluate EXPRESSION and print the resulting multivector.

    Expressions may start with a minus sign; only --format is parsed as
    an option."""
    mv = expr.eval_expression(expression)
    click.echo(_eval_json(mv) if fmt == "json" else expr.render(mv))


def _eval_json(mv) -> str:
    """json.dumps({"text": ..., "coefficients": mv_entries(mv)}, indent=2), byte for byte,
    filled in as the scene writers fill theirs (%r of a float is its repr)."""
    lines = ",\n".join(["    %s: %r" % (_quote(blade), c) for blade, c in mv_entries(mv).items()])
    coefficients = "{\n" + lines + "\n  }" if lines else "{}"
    return '{\n  "text": %s,\n  "coefficients": %s\n}' % (_quote(expr.render(mv)), coefficients)


@main.command("transform")
@click.option("--scene", "scene_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--versor", "versor_spec", default=None, help="Versor expression.")
@click.option("--chain", "chain_specs", multiple=True, help="Versor expressions composed in application order.")
@click.option("--mode", required=True, type=click.Choice(MODES))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False, writable=True))
@_FORMAT
@_guarded
def transform_cmd(scene_path, versor_spec, chain_specs, mode, out_path, fmt):
    """Apply a versor to every object in a scene; emit the new scene JSON.

    Expressions may reference the scene's own objects and versors by name.
    Scene documents are JSON already, so both output formats are identical."""
    if (versor_spec is None) == (len(chain_specs) == 0):
        raise click.UsageError("provide exactly one of --versor or --chain")
    scene = read_scene(scene_path)
    with tolerance.scope(scene.tolerance_rel):
        env = ChainMap(scene.versors, scene.objects, expr.default_env())
        specs = [versor_spec] if versor_spec is not None else list(chain_specs)
        versors = [expr.as_versor(expr.eval_expression(s, env)) for s in specs]
        v = versors[0] if len(versors) == 1 else compose(versors)
        with np.errstate(over="ignore", invalid="ignore"):  # Section names a row that overflowed
            try:
                moved = apply(v, scene.objects.rows, mode)
            except RowRoundingError as exc:
                raise DomainError(f"versor's action on entry {scene.objects.names[exc.row]!r} is all rounding: {exc.reason}") from None
    out = Scene(Section(scene.objects.names, moved), scene.versors, scene.tolerance_rel)
    text = scene_to_json(out)
    if out_path is not None:
        Path(out_path).write_text(text)
    else:
        click.echo(text, nl=False)


def _fmt_param(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt_param(v) for v in value) + ")"
    if isinstance(value, float):
        return format_coeff(value)
    return str(value)


@main.command("classify")
@click.option("--scene", "scene_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_FORMAT
@_guarded
def classify_cmd(scene_path, fmt):
    """Report the kind and parameters of every object in a scene."""
    scene = read_scene(scene_path)
    with tolerance.scope(scene.tolerance_rel):
        names, order = scene.objects.by_name()
        outcomes = classify_batch(scene.objects.rows[order])
    if fmt == "json":
        click.echo(classification_to_json(names, outcomes), nl=False)
        return
    for name, o in zip(names, outcomes):
        if isinstance(o, GAError):
            click.echo(f"{name}: error: {o}")
        else:
            parts = [f"{k}={_fmt_param(v)}" for k, v in o.params.items()]
            click.echo(f"{name}: {o.kind}" + (" " + " ".join(parts) if parts else ""))


@main.command("train")
@click.option("--versor", "versor_spec", required=True, help="Target versor expression.")
@click.option("--n", "n_samples", default=200, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--epochs", default=TrainConfig.epochs, show_default=True, type=click.IntRange(min=0))
@click.option("--lr", default=TrainConfig.lr, show_default=True, type=click.FloatRange(min=0.0, min_open=True),
              callback=_finite)
@click.option("--parity", type=click.Choice(PARITIES), default=None,
              help="Neuron parity; defaults to the target versor's parity.")
@click.option("--mode", type=click.Choice(CONVENTIONS), default="twisted-adjoint", show_default=True)
@click.option("--noise", default=0.0, show_default=True, type=click.FloatRange(min=0.0),
              callback=_finite, help="Std dev of Gaussian noise on target coefficients.")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False, writable=True),
              help="Write weights, bias, and loss history as JSON.")
@_FORMAT
@_guarded
def train_cmd(versor_spec, n_samples, seed, epochs, lr, parity, mode, noise, out_path, fmt):
    """Fit a geometric neuron to reproduce a versor's action on points."""
    v = expr.as_versor(expr.eval_expression(versor_spec))
    parity = parity or v.parity
    net = new_neuron(parity, seed, mode)
    samples = generate_dataset(v, n_samples, seed, noise=noise, convention=mode)
    cfg = TrainConfig(lr=lr, epochs=epochs)
    history = train_neuron(net, samples, cfg)
    summary = {
        "epochs": len(history) - 1,
        "final_loss": history[-1],
        "converged": history[-1] <= cfg.tolerance,
        "parity": parity,
        "mode": mode,
    }
    if out_path is not None:
        payload = {
            **summary,
            "weight": mv_entries(net.weight()),
            "theta": mv_entries(net.bias()),
            "history": history,
        }
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    if fmt == "json":
        click.echo(json.dumps(summary, indent=2))
    else:
        click.echo(
            f"epochs={summary['epochs']} final_loss={format_coeff(summary['final_loss'])} "
            f"converged={str(summary['converged']).lower()}"
        )


if __name__ == "__main__":
    main()
