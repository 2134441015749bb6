"""Command line front end.

    ga eval EXPR                         evaluate an expression
    ga transform --scene F --versor S    act on every object in a scene
    ga classify --scene F                name each object in a scene
    ga train --versor S                  fit a geometric neuron to a versor

Exit codes: 0 on success, 2 for usage and expression syntax errors, and
1 for domain errors (degenerate constructions, parity mismatches,
diverged training, and similar); every failure prints `error: ...` on
stderr. The GA_TOLERANCE environment variable overrides the relative
tolerance for the command and must be a number >= 0 and < 1, a number
below 2**-43 acting as 2**-43 (`tolerance.scope`); a scene's "tolerance"
section overrides that while the scene is in use.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import ChainMap
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps writes for a str
from pathlib import Path

import numpy as np

from . import expr, tolerance
from .algebra import format_coeff
from .conformal import classify_batch
from .errors import DomainError, GAError, ParseError, RowRoundingError
from .neuron import PARITIES, TrainConfig, generate_dataset, new_neuron
from .neuron import train as train_neuron
from .scene import Scene, Section, classification_to_json, escape_controls, mv_entries, read_scene, scene_to_json
from .versor import CONVENTIONS, MODES, apply, compose


class UsageError(Exception):
    """A command line that names no command, or an option or value its command does not take."""


class _Parser(argparse.ArgumentParser):
    """One command's options: --help, --format and those the command adds. A usage error raises
    UsageError for `main` to report. `valued` names the options that take a value, and `words` is
    how many other arguments the command takes."""

    def __init__(self, name: str, description: str, words: int = 0, usage: str | None = None):
        super().__init__(prog=f"ga {name}", description=description, usage=usage, add_help=False,
                         allow_abbrev=False)
        self.valued: set[str] = set()
        self.words = words
        self.add_argument("--help", action="help", help="show this message and exit")
        self.add_argument("--format", dest="fmt", choices=("text", "json"), default="text",
                          help="output format (default: %(default)s)")

    def add_argument(self, *names, **kwargs):
        if kwargs.get("action") != "help":
            self.valued.update(names)
        return super().add_argument(*names, **kwargs)

    def error(self, message: str):
        raise UsageError(f"{message} (see '{self.prog} --help')")

    def parse(self, args: list[str]) -> argparse.Namespace:
        """The command's options, and its other arguments as `words`. An option that takes a
        value takes the next argument even if it starts with '-' (`--versor "-e1"`), `--` ends
        the options, and any other argument is a word, so `ga eval "-2*e1"` is an expression,
        where argparse would read it as an option."""
        options, words = [], []
        rest = iter(args)
        for arg in rest:
            if arg == "--":
                words += rest
            elif arg in self.valued:
                value = next(rest, None)
                options.append(arg if value is None else f"{arg}={value}")
            elif arg == "--help" or arg.partition("=")[0] in self.valued:
                options.append(arg)
            else:
                words.append(arg)
        namespace = self.parse_args(options, argparse.Namespace(words=words))
        if len(words) != self.words:
            self.error(f"{self.prog} takes {self.words} argument(s) besides its options, got {words!r}")
        return namespace


def _bounded(kind: type, low: float, strict: bool = False):
    """An argparse type: a finite `kind` >= low, or > low if strict."""
    what = f"{'an integer' if kind is int else 'a finite number'} {'>' if strict else '>='} {low:g}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (value > low if strict else value >= low) or (kind is float and not math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def _file(access: int):
    """An argparse type: the path of a file this process may read (access os.R_OK) or write
    (os.W_OK). A file to read must exist; a file to write may be made in its directory."""

    def check(path: str) -> str:
        if os.path.isdir(path):
            problem = "is a directory"
        elif os.path.exists(path):
            problem = None if os.access(path, access) else f"is not {'readable' if access == os.R_OK else 'writable'}"
        elif access == os.R_OK:
            problem = "does not exist"
        else:
            folder = os.path.dirname(path) or "."
            problem = None if os.path.isdir(folder) and os.access(folder, os.W_OK) else f"has no writable directory {folder!r}"
        if problem:
            raise argparse.ArgumentTypeError(f"{path!r} {problem}")
        return path

    return check


def _eval(options: argparse.Namespace) -> None:
    mv = expr.eval_expression(options.words[0])
    print(_eval_json(mv) if options.fmt == "json" else expr.render(mv))


def _eval_json(mv) -> str:
    """json.dumps({"text": ..., "coefficients": mv_entries(mv)}, indent=2), byte for byte,
    filled in as the scene writers fill theirs (%r of a float is its repr)."""
    lines = ",\n".join(["    %s: %r" % (_quote(blade), c) for blade, c in mv_entries(mv).items()])
    coefficients = "{\n" + lines + "\n  }" if lines else "{}"
    return '{\n  "text": %s,\n  "coefficients": %s\n}' % (_quote(expr.render(mv)), coefficients)


def _transform(options: argparse.Namespace) -> None:
    if (options.versor is None) == (options.chain is None):
        _TRANSFORM.error("provide exactly one of --versor or --chain")
    scene = read_scene(options.scene)
    with tolerance.scope(scene.tolerance_rel):
        env = ChainMap(scene.versors, scene.objects, expr.default_env())
        specs = [options.versor] if options.versor is not None else options.chain
        versors = [expr.as_versor(expr.eval_expression(s, env)) for s in specs]
        v = versors[0] if len(versors) == 1 else compose(versors)
        with np.errstate(over="ignore", invalid="ignore"):  # Section names a row that overflowed
            try:
                moved = apply(v, scene.objects.rows, options.mode)
            except RowRoundingError as exc:
                raise DomainError(f"versor's action on entry {scene.objects.names[exc.row]!r} is all rounding: {exc.reason}") from None
    out = Scene(Section(scene.objects.names, moved), scene.versors, scene.tolerance_rel)
    text = scene_to_json(out)
    if options.out is not None:
        Path(options.out).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt_param(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt_param(v) for v in value) + ")"
    if isinstance(value, float):
        return format_coeff(value)
    return str(value)


def _classify(options: argparse.Namespace) -> None:
    scene = read_scene(options.scene)
    with tolerance.scope(scene.tolerance_rel):
        names, order = scene.objects.by_name()
        outcomes = classify_batch(scene.objects.rows[order])
    if options.fmt == "json":
        sys.stdout.write(classification_to_json(names, outcomes))
        return
    for name, o in zip(map(escape_controls, names), outcomes):
        if isinstance(o, GAError):
            print(f"{name}: error: {o}")
        else:
            parts = [f"{k}={_fmt_param(v)}" for k, v in o.params.items()]
            print(f"{name}: {o.kind}" + (" " + " ".join(parts) if parts else ""))


def _train(options: argparse.Namespace) -> None:
    v = expr.as_versor(expr.eval_expression(options.versor))
    parity = options.parity or v.parity
    net = new_neuron(parity, options.seed, options.mode)
    samples = generate_dataset(v, options.n, options.seed, noise=options.noise, convention=options.mode)
    cfg = TrainConfig(lr=options.lr, epochs=options.epochs)
    history = train_neuron(net, samples, cfg)
    summary = {
        "epochs": len(history) - 1,
        "final_loss": history[-1],
        "converged": history[-1] <= cfg.tolerance,
        "parity": parity,
        "mode": options.mode,
    }
    if options.out is not None:
        payload = {
            **summary,
            "weight": mv_entries(net.weight()),
            "theta": mv_entries(net.bias()),
            "history": history,
        }
        Path(options.out).write_text(json.dumps(payload, indent=2) + "\n")
    if options.fmt == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(f"epochs={summary['epochs']} final_loss={format_coeff(summary['final_loss'])} "
              f"converged={str(summary['converged']).lower()}")


_EVAL = _Parser("eval", "Evaluate EXPRESSION and print the resulting multivector.\n\nExpressions may start with a "
                "minus sign; only --format and --help are options.", words=1,
                usage="ga eval [--help] [--format {text,json}] EXPRESSION")

_TRANSFORM = _Parser("transform", "Apply a versor to every object in a scene; emit the new scene JSON.\n\n"
                     "Expressions may reference the scene's own objects and versors by name. Scene documents are "
                     "JSON already, so both output formats are identical.")
_TRANSFORM.add_argument("--scene", required=True, type=_file(os.R_OK), help="scene JSON file")
_TRANSFORM.add_argument("--versor", help="versor expression")
_TRANSFORM.add_argument("--chain", action="append", help="versor expressions composed in application order")
_TRANSFORM.add_argument("--mode", required=True, choices=MODES)
_TRANSFORM.add_argument("--out", type=_file(os.W_OK), help="write the scene here instead of to stdout")

_CLASSIFY = _Parser("classify", "Report the kind and parameters of every object in a scene.")
_CLASSIFY.add_argument("--scene", required=True, type=_file(os.R_OK), help="scene JSON file")

_TRAIN = _Parser("train", "Fit a geometric neuron to reproduce a versor's action on points.")
_TRAIN.add_argument("--versor", required=True, help="target versor expression")
_TRAIN.add_argument("--n", default=200, type=_bounded(int, 1), help="number of samples (default: %(default)s)")
_TRAIN.add_argument("--seed", default=0, type=_bounded(int, 0), help="(default: %(default)s)")
_TRAIN.add_argument("--epochs", default=TrainConfig.epochs, type=_bounded(int, 0), help="(default: %(default)s)")
_TRAIN.add_argument("--lr", default=TrainConfig.lr, type=_bounded(float, 0.0, strict=True),
                    help="(default: %(default)s)")
_TRAIN.add_argument("--parity", choices=PARITIES, help="neuron parity; defaults to the target versor's parity")
_TRAIN.add_argument("--mode", choices=CONVENTIONS, default="twisted-adjoint", help="(default: %(default)s)")
_TRAIN.add_argument("--noise", default=0.0, type=_bounded(float, 0.0),
                    help="std dev of Gaussian noise on target coefficients (default: %(default)s)")
_TRAIN.add_argument("--out", type=_file(os.W_OK), help="write weights, bias, and loss history as JSON")

_COMMANDS = {"eval": (_EVAL, _eval), "transform": (_TRANSFORM, _transform), "classify": (_CLASSIFY, _classify),
             "train": (_TRAIN, _train)}

_HELP = "usage: ga COMMAND [--help] ...\n\nConformal geometric algebra: evaluate, transform, classify, train.\n\n" \
        "commands:\n" + "".join(f"  {name:10s} {parser.description.splitlines()[0]}\n"
                                for name, (parser, _) in _COMMANDS.items())


def _rel(raw: str | None) -> float | None:
    """GA_TOLERANCE's relative tolerance; None, which keeps the current one, if it is unset."""
    if raw is None:
        return None
    try:
        rel = float(raw)
    except ValueError:
        rel = math.nan
    if not tolerance.in_range(rel):
        raise UsageError(f"GA_TOLERANCE must be {tolerance.RANGE}, got {raw!r}")
    return rel


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run the `ga` command in argv (sys.argv[1:] by default) and return None. A failure prints
    `error: ...` on stderr and raises SystemExit(1 or 2); a command's --help raises SystemExit(0).
    standalone_mode has no effect: it is accepted because in-process callers such as
    bench/child.py pass standalone_mode=False, which click's main took."""
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        if args[:1] == ["--help"]:
            print(_HELP, end="")
            return
        if not args or args[0] not in _COMMANDS:
            raise UsageError(f"expected a command, one of {', '.join(_COMMANDS)}; got "
                             + (repr(args[0]) if args else "none"))
        parser, run = _COMMANDS[args[0]]
        with tolerance.scope(_rel(os.environ.get("GA_TOLERANCE"))):  # until the command returns or raises
            run(parser.parse(args[1:]))
    except (UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except GAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:  # the reader stopped early, as `ga classify ... | head` does
        # Python flushes stdout again at exit: send that flush to devnull, where it cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
