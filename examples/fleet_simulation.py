#!/usr/bin/env python3
"""Fleet simulation: does the TPMS survive across a whole vehicle population?

The paper answers "does one node survive one drive cycle?"; a fleet spec
scales the question to a population.  Every vehicle derives from one base
scenario through named per-vehicle distributions — log-normal drive-style
speed scales, fleet-correlated ambient temperature, a categorical drive-cycle
mix, Gaussian manufacturing tolerance on the scavenger size and storage
capacity — and the :class:`~repro.fleet.FleetRunner` shares compiled power
tables, materialized cycles and quantized energy bins across all of them
(one cross-vehicle sweep before emulation), so hundreds of vehicles emulate
in the time a handful used to take.

The same simulation runs from the shell::

    tpms-energy fleet --fleet examples/scenarios/fleet.json
    tpms-energy fleet --scenario examples/scenarios/quickstart.json --vehicles 500

Run with::

    python examples/fleet_simulation.py
"""

from __future__ import annotations

from pathlib import Path

from repro.fleet import FleetRunner, load_fleet

FLEET_DOCUMENT = Path(__file__).parent / "scenarios" / "fleet.json"


def main() -> None:
    fleet = load_fleet(FLEET_DOCUMENT)
    print(f"fleet {fleet.name}: {fleet.describe()}\n")

    result = FleetRunner(fleet).run()

    print(result.as_table())
    print()
    # The survival curve: what fraction of the fleet is still operational at
    # each point of its (normalized) drive.
    for row in result.survival[::10]:
        bar = "#" * int(row["surviving_pct"] / 2.5)
        print(f"  t={row['time_pct']:5.1f}%  {row['surviving_pct']:5.1f}%  {bar}")

    metadata = result.metadata
    print(
        f"\n{metadata['vehicles']} vehicles in {metadata['cohorts']} cohorts "
        f"({metadata['groups']} evaluator group(s)); "
        f"{metadata['shared_energy_bins']} energy bins swept once; "
        f"{metadata['wall_time_s']:.2f} s wall time"
    )

    # Aggregates ride the ordinary StudyResult export path.
    study_result = result.to_study_result()
    print(f"\nexportable as StudyResult: kind={study_result.kind!r}, "
          f"{list(study_result.rows[0])[:4]}...")


if __name__ == "__main__":
    main()
