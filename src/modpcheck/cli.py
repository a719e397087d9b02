"""Command line front end.

Exit codes: 0 all selected checks pass, 1 at least one failed, 2 the
configuration itself was rejected, 3 an internal error stopped the run.
"""

import json
import sys

import click

from .errors import ConfigInvalid
from .harness import SCHEMA, SUITES, Report, RunConfig, emit_report, list_params, run_suite


def _config_error(msg):
    click.echo(f"config error: {msg}", err=True)
    sys.exit(2)


def _internal_error(exc):
    # any other exception is a crash of the verifier, never a failed check
    click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(3)


def _parse_ints(raw, what):
    """The comma separated ints of raw, each item nonempty; "" is none."""
    try:
        return tuple(int(x) for x in raw.split(",")) if raw else ()
    except ValueError:
        _config_error(f"cannot parse {what}={raw!r}")


def _no_constant(name):  # _plain writes INF as null: no report holds NaN or Infinity
    raise ValueError(f"{name} is not JSON")


def _malformed(payload):
    """What makes a schema-matching payload unreadable as a report, or None."""
    for key in ("config", "fingerprint"):
        if not isinstance(payload[key], dict):
            return f"{key} is not an object"
    if not isinstance(payload["suites"], list):
        return "suites is not a list"
    for i, row in enumerate(payload["suites"]):
        if not isinstance(row, dict):
            return f"suite row {i} is not an object"
        if not isinstance(row.get("name"), str):
            return f"suite row {i} has no name"
        if row.get("status") != ("fail" if "counterexample" in row else "pass"):  # as Sweep writes
            return f"suite row {i} has no status fail with a counterexample or pass without"
        if type(row.get("checked")) is not int or row["checked"] < 0:  # a bool is an int too
            return f"suite row {i} has no checked count"
    return None


@click.group()
def main():
    """Exact-arithmetic verifier for the weight and matrix calculus."""


@main.command()
@click.option("--p", type=int, required=True, help="residue characteristic")
@click.option("--f", type=int, required=True, help="number of embeddings")
@click.option("--r", required=True, help="comma separated exponents, f of them")
@click.option("--jrho", default="all", show_default=True,
              help='"all", "none", or comma separated indices')
@click.option("--cutoff", type=int, default=None, help="truncation depth override")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--suite", "suites", multiple=True, type=click.Choice(SUITES),
              help="repeatable; default is every suite")
@click.option("--mutate", default=None,
              help="perturb one table cell (s, t, a, r, c, cprime, tJJp, aJn) or 'eps'")
@click.option("--units", type=int, default=20, show_default=True,
              help="sampled principal units per context")
@click.option("--thetas", type=int, default=50, show_default=True,
              help="random solver problems per parameter set")
@click.option("--format", "fmt", type=click.Choice(("json", "text")),
              default="json", show_default=True)
def verify(p, f, r, jrho, cutoff, seed, suites, mutate, units, thetas, fmt):
    """Run the selected suites and print a deterministic report."""
    r_tuple = _parse_ints(r, "r")
    if jrho == "all":
        jrho_val = "all"
    elif jrho == "none":
        jrho_val = ()
    else:
        jrho_val = _parse_ints(jrho, "jrho")
    try:
        config = RunConfig(
            p=p, f=f, r=r_tuple, jrho=jrho_val, cutoff=cutoff, seed=seed,
            suites=tuple(suites) or SUITES, mutate=mutate, units=units,
            thetas=thetas,
        )
        rep = run_suite(config)
        out = emit_report(rep, fmt)
    except ConfigInvalid as e:
        _config_error(e)
    except Exception as e:
        _internal_error(e)
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    for label, dt in rep.timings.items():
        click.echo(f"timing {label} {dt:.3f}s", err=True)
    sys.exit(0 if rep.passed else 1)


@main.command()
@click.option("--f", "f_filter", type=int, default=None,
              help="restrict to one preset block")
def params(f_filter):
    """List the built-in verification presets."""
    try:
        configs = list_params(f_filter)
    except ConfigInvalid as e:
        _config_error(e)
    for cfg in configs:
        click.echo(
            f"p={cfg.p} f={cfg.f} r={','.join(str(x) for x in cfg.r)} "
            f"jrho=all cutoff={cfg.cutoff_value()}"
        )


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(("json", "text")),
              default="text", show_default=True)
def report(file, fmt):
    """Re-render a stored JSON report; exit code reflects its outcome."""
    with open(file, "rb") as fh:
        try:
            payload = json.load(fh, parse_constant=_no_constant)
        except (ValueError, RecursionError) as e:  # JSONDecodeError, UnicodeDecodeError
            _config_error(f"not a report file: {e}")
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if type(schema) is not int or schema != SCHEMA:  # neither true nor 1.0
        _config_error(f"unsupported schema {schema!r}")
    try:
        bad = _malformed(payload)
    except KeyError as e:
        _config_error(f"report missing field {e}")
    if bad is not None:
        _config_error(f"not a report file: {bad}")
    rep = Report(
        config=payload["config"],
        fingerprint=payload["fingerprint"],
        suites=payload["suites"],
        timings={},
    )
    try:
        out = emit_report(rep, fmt)
    except ConfigInvalid as e:
        _config_error(e)
    sys.stdout.buffer.write(out)
    sys.exit(0 if rep.passed else 1)


if __name__ == "__main__":
    main()
