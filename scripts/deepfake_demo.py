#!/usr/bin/env python3
"""End-to-end demo on the deepfake-style preset.

Generates a synthetic dataset (7 binary video features, binary state, three
behavioral columns: unaided human, AI at 65% binarized accuracy, human-AI
team), bootstraps per-feature attributions against each behavioral column, and
renders the distribution chart.  Everything is seeded; rerunning reproduces
the same bytes.
"""

import argparse
from pathlib import Path

from infogain.bootstrap import BootstrapSpec, ShapleyStat, bootstrap_run
from infogain.io import SchemaConfig, write_dataset, write_results, write_schema
from infogain.report import build_plot_spec, render_svg, summary_table
from infogain.synth import make_deepfake_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=4000)
    parser.add_argument("--replicates", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out-dir", default="deepfake_demo_out")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    data, problem = make_deepfake_dataset(n_rows=args.rows, seed=args.seed)
    cfg = SchemaConfig(state_column=data.state_name, schema=data.schema, problem=problem)
    write_dataset(data, out / "data.csv")
    write_schema(cfg, out / "schema.json")

    spec = BootstrapSpec(
        replicates=args.replicates,
        seed=args.seed,
        statistics=tuple(ShapleyStat(ground=(col,)) for col in data.schema.decision_names),
    )
    result = bootstrap_run(data, problem, spec)
    write_results(result, out / "bootstrap.json")
    print(summary_table(result))

    svg = render_svg(build_plot_spec([result]))
    (out / "gains.svg").write_bytes(svg)
    print(f"\nwrote {out / 'data.csv'}, {out / 'bootstrap.json'}, {out / 'gains.svg'}")


if __name__ == "__main__":
    main()
