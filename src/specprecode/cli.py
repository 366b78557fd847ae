"""Command-line entry points.

``specprecode`` runs one scenario and writes its outputs; exit code 0 on
success, 2 for configuration problems (including a constraint with no
usable geometry, such as a kernel row that vanishes on the active band), 3
for numerical failures inside a solver.  ``specprecode-compare`` tabulates
the summary metrics of several finished runs against the first one.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import PRECODERS, ScenarioConfig, read_scenario
from .errors import ConfigError, DegenerateConstraintError, NumericalError
from .runner import compare_runs, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="specprecode",
        description="Mask-compliant OFDM spectral precoding runs.")
    parser.add_argument("--config", help="scenario JSON file (defaults to the "
                        "built-in 5 MHz reference scenario)")
    parser.add_argument("--precoder", choices=PRECODERS, help="override the configured precoder")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--symbols", type=int, help="override the symbol count")
    parser.add_argument("--out-dir", help="override the output directory")
    parser.add_argument("--emit-waveforms", action="store_true",
                        help="also write the base-rate time waveform")
    parser.add_argument("--print-config", action="store_true",
                        help="print the resolved configuration and exit")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        data = read_scenario(args.config) if args.config is not None else {}
        for key, val in (("precoder", args.precoder), ("seed", args.seed),
                         ("symbols", args.symbols), ("out_dir", args.out_dir)):
            if val is not None:
                data[key] = val
        if args.emit_waveforms:
            data["emit_waveforms"] = True
        cfg = ScenarioConfig.from_dict(data)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.print_config:
        json.dump(cfg.normalized(), sys.stdout, indent=2, sort_keys=True)
        print()
        return EXIT_OK

    try:
        manifest = run_scenario(cfg)
    except (ConfigError, DegenerateConstraintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    met = manifest["metrics"]
    print(f"precoder={met['precoder']} symbols={met['symbols']} "
          f"evm={met['evm_wideband_rms']:.4%} "
          f"aclr_worst={met['aclr_worst_db']:.2f} dB "
          f"mask_ratio_max={met['mask_ratio_max']:.3e}")
    return EXIT_OK


def compare_main(argv=None):
    parser = argparse.ArgumentParser(
        prog="specprecode-compare",
        description="Tabulate summary metrics of finished runs; the first "
                    "manifest is the baseline for the delta columns.")
    parser.add_argument("manifests", nargs="+", help="manifest.json paths")
    parser.add_argument("--out", help="write the comparison table as CSV")
    args = parser.parse_args(argv)
    try:
        table = compare_runs(args.manifests, out_csv=args.out)
    except (FileNotFoundError, ConfigError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    header = table["header"]
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in table["rows"]:
        cells = [format(v, ".6g") if isinstance(v, float) else str(v) for v in row]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
