"""Command-line entry points; exit code 0 only on full success."""

from __future__ import annotations

import json
import os

import click

from . import __version__, fingerprint, harness, impute
from .road_net import load_network


def _seed(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"--seeds: {token.strip()!r} is not an integer") from None


def parse_seeds(text: str):
    """'1..10' (inclusive range) or '1,4,9'. ValueError names ``--seeds`` and
    a token that is not an integer, or an empty range."""
    text = text.strip()
    if ".." in text:
        lo, hi = (_seed(t) for t in text.split("..", 1))
        if lo > hi:
            raise ValueError(f"--seeds: range {text!r} is empty")
        return list(range(lo, hi + 1))
    return [_seed(s) for s in text.split(",") if s.strip()]


@click.group()
@click.version_option(version=__version__)
def main():
    """Co-simulation toolkit for hybrid vehicular traffic."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Master seed (default: from config).")
@click.option("--out", "out_dir", required=True, type=click.Path())
def run(config_path, seed, out_dir):
    """Run the configured experiment pipeline and write report.json."""
    try:
        config = harness.load_config(config_path)
        report = harness.run_experiment(config, seed=seed, out_dir=out_dir,
                                        base_dir=os.path.dirname(config_path) or ".")
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"report written to {os.path.join(out_dir, 'report.json')}")
    for stage in report.data["stages"]:
        click.echo(f"  stage {stage}: ok")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--policies", required=True,
              help="Comma-separated policy kinds, e.g. periodic,cat,ml_cat,ml_pcat.")
@click.option("--seeds", required=True, help="Seed list '1,2,3' or range '1..10'.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Optional JSON output for the comparison table.")
def compare(config_path, policies, seeds, out_path):
    """Compare transfer policies over several seeds (mean +/- stddev)."""
    try:
        config = harness.load_config(config_path)
        rows = harness.compare_policies(config, [p.strip() for p in policies.split(",")],
                                        parse_seeds(seeds),
                                        base_dir=os.path.dirname(config_path) or ".")
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc
    header = f"{'policy':<10} {'goodput Mbit/s':>18} {'energy J':>18} {'dwell s':>18}"
    click.echo(header)
    for row in rows:
        def fmt(mean, std):
            if mean is None:
                return f"{'-':>18}"
            return f"{mean:>10.3f} ± {std:<5.3f}"
        click.echo(f"{row['policy']:<10} "
                   f"{fmt(row['goodput_mbps_mean'], row['goodput_mbps_std'])} "
                   f"{fmt(row['energy_j_mean'], row['energy_j_std'])} "
                   f"{fmt(row['dwell_s_mean'], row['dwell_s_std'])}")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(rows, fh, sort_keys=True, indent=2)


@main.command("gen-corpus")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--count", type=int, default=2500, show_default=True)
@click.option("--noise-sigma-db", type=float, default=2.0, show_default=True)
@click.option("--mix", type=float, default=0.5, show_default=True,
              help="Fraction of car-like traces.")
@click.option("--seed", type=int, default=0, show_default=True)
def gen_corpus(out_dir, count, noise_sigma_db, mix, seed):
    """Generate a labeled synthetic fingerprint corpus (CSV + manifest)."""
    try:
        traces = fingerprint.generate_corpus(count, noise_sigma_db, mix, seed)
        fingerprint.write_corpus(traces, out_dir)
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"{count} traces written to {out_dir}")


@main.command()
@click.option("--network", "network_path", required=True, type=click.Path(exists=True))
@click.option("--observations", "obs_path", required=True, type=click.Path(exists=True),
              help="CSV with columns edge,offset_m,day,flow.")
@click.option("--targets", required=True,
              help="Comma-separated edge:offset pairs, e.g. 'e1:100,e2:50'.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--length-scale", type=float, default=harness.IMPUTE["length_scale_m"],
              show_default=True)
@click.option("--knn", "knn_k", type=click.IntRange(min=1), default=None,
              help="Also print kNN estimates with this k.")
@click.option("--euclidean", is_flag=True,
              help="Fit the GP over straight-line distance, as the config's "
                   "impute.euclidean; kNN stays on network distance.")
def impute_cmd(network_path, obs_path, targets, out_path, length_scale, knn_k, euclidean):
    """Estimate traffic volumes at unobserved locations (GPR over the network)."""
    try:
        net = load_network(network_path)
        observations = impute.read_observations_csv(obs_path, net)
        locs = []
        for part in targets.split(","):
            edge, _, offset = part.strip().rpartition(":")
            try:
                locs.append(impute.NetPoint(edge, float(offset)))
            except ValueError:
                raise ValueError(f"--targets: {part.strip()!r} is not edge:offset") from None
        params = impute.default_params([o.flow_veh_day for o in observations],
                                       length_scale)
        params.euclidean = euclidean
        model = impute.fit_gpr(net, observations, params)
        preds = impute.predict_gpr(model, locs)
        impute.write_predictions_csv(out_path, locs, preds)
        if knn_k is not None:
            estimates = impute.knn_estimates(observations, locs,
                                             min(knn_k, len(observations)), net)
            for loc, est in zip(locs, estimates):
                click.echo(f"knn {loc.edge}:{loc.offset_m} -> {est:.1f}")
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"predictions written to {out_path}")


main.add_command(impute_cmd, name="impute")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["fixed", "wardrop", "bmp", "combined"]),
              default="bmp", show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
def assign(config_path, method, seed, out_path):
    """Evaluate one assignment method with the config's assign-stage settings."""
    try:
        result = harness.evaluate_assignment(harness.load_config(config_path), method,
                                             seed=seed,
                                             base_dir=os.path.dirname(config_path) or ".")
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc
    payload = result.to_dict()
    click.echo(f"method={method} mean_dwell_s={result.mean_dwell_s}")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
        click.echo(f"assignment written to {out_path}")
