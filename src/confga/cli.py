"""Command line front end.

    ga eval EXPR                         evaluate an expression
    ga transform --scene F --versor S    act on every object in a scene
    ga classify --scene F                name each object in a scene
    ga train --versor S                  fit a geometric neuron to a versor

Exit codes: 0 on success, 2 for usage and expression syntax errors, and
1 for domain errors (degenerate constructions, parity mismatches,
diverged training, and similar). The GA_TOLERANCE environment variable
overrides the relative tolerance at startup and must be finite; a
scene's "tolerance" section overrides it until that command ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import expr, tolerance
from .algebra import format_coeff
from .conformal import ALG, classify_batch
from .errors import GAError, ParseError
from .neuron import TrainConfig, generate_dataset, new_neuron
from .neuron import train as train_neuron
from .scene import Scene, mv_entries, read_scene, scene_to_json
from .versor import apply, compose, make_versor

_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)


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
    if raw is not None:
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise click.UsageError(f"GA_TOLERANCE must be a finite number, got {raw!r}")
        tolerance.set_rel_eps(value)


@main.command("eval", context_settings={"ignore_unknown_options": True})
@click.argument("expression")
@_FORMAT
@_guarded
def eval_cmd(expression: str, fmt: str):
    """Evaluate EXPRESSION and print the resulting multivector.

    Expressions may start with a minus sign; only --format is parsed as
    an option."""
    mv = expr.eval_expression(expression)
    if fmt == "json":
        payload = {"text": expr.render(mv), "coefficients": mv_entries(mv)}
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(expr.render(mv))


@contextlib.contextmanager
def _scene(path):
    """Read a scene; its tolerance, if it has one, holds until the command ends."""
    scene = read_scene(path)
    before = tolerance.rel_eps()
    tolerance.set_rel_eps(before if scene.tolerance_rel is None else scene.tolerance_rel)
    try:
        yield scene
    finally:
        tolerance.set_rel_eps(before)


@main.command("transform")
@click.option("--scene", "scene_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--versor", "versor_spec", default=None, help="Versor expression.")
@click.option("--chain", "chain_specs", multiple=True, help="Versor expressions composed in application order.")
@click.option("--mode", required=True, type=click.Choice(["motion", "reflection"]))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False, writable=True))
@_FORMAT
@_guarded
def transform_cmd(scene_path, versor_spec, chain_specs, mode, out_path, fmt):
    """Apply a versor to every object in a scene; emit the new scene JSON.

    Expressions may reference the scene's own objects and versors by name.
    Scene documents are JSON already, so both output formats are identical."""
    if (versor_spec is None) == (len(chain_specs) == 0):
        raise click.UsageError("provide exactly one of --versor or --chain")
    with _scene(scene_path) as scene:
        env = {**expr.default_env(), **scene.objects, **scene.versors}
        specs = [versor_spec] if versor_spec is not None else list(chain_specs)
        versors = [make_versor(expr.eval_expression(s, env), allow_null=True) for s in specs]
        v = versors[0] if len(versors) == 1 else compose(versors)
        moved = dict(zip(scene.objects, apply(v, list(scene.objects.values()), mode)))
    out = Scene(objects=moved, versors=dict(scene.versors), tolerance_rel=scene.tolerance_rel)
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
    with _scene(scene_path) as scene:
        names = sorted(scene.objects)
        outcomes = classify_batch(np.array([scene.objects[name].coeffs for name in names]).reshape(-1, ALG.dim))
    results = {
        name: {"error": str(o)} if isinstance(o, GAError) else {"kind": o.kind, "params": o.params}
        for name, o in zip(names, outcomes)
    }
    if fmt == "json":
        click.echo(json.dumps(results, indent=2))
        return
    for name, info in results.items():
        if "error" in info:
            click.echo(f"{name}: error: {info['error']}")
        else:
            parts = [f"{k}={_fmt_param(v)}" for k, v in info["params"].items()]
            click.echo(f"{name}: {info['kind']}" + (" " + " ".join(parts) if parts else ""))


@main.command("train")
@click.option("--versor", "versor_spec", required=True, help="Target versor expression.")
@click.option("--n", "n_samples", default=200, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--epochs", default=5000, show_default=True, type=int)
@click.option("--lr", default=0.015, show_default=True, type=float)
@click.option("--parity", type=click.Choice(["even", "odd"]), default=None,
              help="Neuron parity; defaults to the target versor's parity.")
@click.option("--mode", type=click.Choice(["twisted-adjoint", "paper-literal"]),
              default="twisted-adjoint", show_default=True)
@click.option("--noise", default=0.0, show_default=True, type=float,
              help="Std dev of Gaussian noise on target coefficients.")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False, writable=True),
              help="Write weights, bias, and loss history as JSON.")
@_FORMAT
@_guarded
def train_cmd(versor_spec, n_samples, seed, epochs, lr, parity, mode, noise, out_path, fmt):
    """Fit a geometric neuron to reproduce a versor's action on points."""
    v = make_versor(expr.eval_expression(versor_spec), allow_null=True)
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
