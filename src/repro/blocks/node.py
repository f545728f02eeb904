"""The Sensor Node: composition of functional blocks into one architecture.

A :class:`SensorNode` bundles the block configurations (the paper's
*operating conditions*) and knows how to turn a wheel round at a given speed
into the intra-revolution :class:`~repro.timing.schedule.RevolutionSchedule`
the evaluator and emulator consume.  The node does not carry power figures —
those always come from a :class:`~repro.power.database.PowerDatabase`, so the
same architecture can be evaluated against the baseline and the optimized
characterization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.blocks.adc import AdcConfig
from repro.blocks.base import FunctionalBlock
from repro.blocks.mcu import McuConfig
from repro.blocks.memory import MemoryConfig
from repro.blocks.pmu import PmuConfig
from repro.blocks.radio import RadioConfig
from repro.blocks.sensors import SensorSuiteConfig
from repro.errors import ConfigurationError, UnknownBlockError
from repro.power.database import PowerDatabase
from repro.timing.schedule import Phase, RevolutionSchedule
from repro.vehicle.contact_patch import ContactPatchModel
from repro.vehicle.wheel import Wheel


def _instance_memo(node: "SensorNode", slot: str, build):
    """Identity-keyed memo stored on a frozen node instance.

    Schedule construction needs several pure derivations of the node (the
    resting-mode mapping, the default contact-patch model, the fixed
    transmit phases) for every build; recreating them per wheel round
    dominated the cost of workload sweeps that build thousands of schedules.
    The node is a frozen dataclass, so the derivations are pure functions of
    its value — they are stashed in non-field slots via
    ``object.__setattr__`` (equality, hash and repr only look at declared
    fields) and keyed by *identity*, avoiding the recursive dataclass hash
    that a value-keyed cache would pay per lookup.
    """
    cached = node.__dict__.get(slot)
    if cached is None:
        cached = build()
        object.__setattr__(node, slot, cached)
    return cached


@dataclass(frozen=True)
class SensorNode:
    """A complete Sensor Node architecture.

    Attributes:
        name: architecture name used in reports.
        sensors: sensor-suite configuration.
        adc: ADC configuration.
        mcu: data-computing-system configuration.
        memory: memory-subsystem configuration.
        radio: radio configuration.
        pmu: power-management configuration.
        wheel: the wheel the node is mounted in.
        contact_patch: contact-patch timing model (defaults to the node's
            wheel).
    """

    name: str = "baseline"
    sensors: SensorSuiteConfig = field(default_factory=SensorSuiteConfig)
    adc: AdcConfig = field(default_factory=AdcConfig)
    mcu: McuConfig = field(default_factory=McuConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    pmu: PmuConfig = field(default_factory=PmuConfig)
    wheel: Wheel = field(default_factory=Wheel)
    contact_patch: ContactPatchModel | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("architecture name must not be empty")

    # -- architecture queries -------------------------------------------------

    @property
    def patch_model(self) -> ContactPatchModel:
        """Contact-patch model, defaulting to one built on the node's wheel."""
        if self.contact_patch is not None:
            return self.contact_patch
        return _instance_memo(
            self, "_patch_model_memo", lambda: ContactPatchModel(wheel=self.wheel)
        )

    def blocks(self) -> list[FunctionalBlock]:
        """Every functional block of the architecture."""
        collected: list[FunctionalBlock] = []
        collected.extend(self.sensors.blocks())
        collected.append(self.adc.block())
        collected.append(self.mcu.block())
        collected.extend(self.memory.blocks())
        collected.extend(self.radio.blocks())
        collected.append(self.pmu.block())
        return collected

    def block_names(self) -> list[str]:
        """Names of every block, in architecture order."""
        return [block.name for block in self.blocks()]

    def block_named(self, name: str) -> FunctionalBlock:
        """Look a block up by name."""
        for block in self.blocks():
            if block.name == name:
                return block
        raise UnknownBlockError(
            f"architecture {self.name!r} has no block {name!r}; "
            f"blocks: {self.block_names()}"
        )

    def resting_modes(self) -> dict[str, str]:
        """Block -> resting-mode mapping used as the schedule baseline.

        Derived once per node instance and memoized (see
        :func:`_instance_memo`); every call returns a fresh dict so callers
        stay free to mutate their copy.
        """
        pairs = _instance_memo(
            self,
            "_resting_modes_memo",
            lambda: tuple((block.name, block.resting_mode) for block in self.blocks()),
        )
        return dict(pairs)

    def required_characterization(self) -> dict[str, tuple[str, ...]]:
        """The (block -> modes) coverage the power database must provide."""
        required: dict[str, tuple[str, ...]] = {}
        for block in self.blocks():
            required[block.name] = block.modes
        return required

    def validate_database(self, database: PowerDatabase) -> None:
        """Fail fast if ``database`` does not characterize this architecture."""
        database.validate_against(self.required_characterization())

    def adapt_database(self, database: PowerDatabase) -> PowerDatabase:
        """Re-target clocked entries to this architecture's clock choices.

        The characterization library describes the MCU and SRAM at their
        reference clock; an architecture that runs the data-computing system
        at a different frequency both stretches the compute phase (handled by
        :class:`McuConfig`) and draws proportionally less dynamic power
        (handled here by re-clocking the database entries).  Blocks without a
        characterized clock are returned unchanged.
        """
        self.validate_database(database)
        clocked_blocks = {"mcu", "sram"}

        def retarget(entry):
            if entry.block in clocked_blocks and entry.clock_frequency_hz > 0.0:
                return entry.with_clock(self.mcu.clock_hz)
            return entry

        return database.map_entries(retarget, name=f"{database.name}@{self.name}")

    # -- schedule construction --------------------------------------------------

    def samples_per_revolution(self, speed_kmh: float) -> int:
        """Accelerometer samples acquired around the contact patch per revolution."""
        if not self.sensors.use_accelerometer:
            return 1
        window = self.patch_model.acquisition_window_s(speed_kmh)
        return self.adc.samples_in(window)

    def raw_bits_per_revolution(self, speed_kmh: float) -> int:
        """Raw acquired data volume per revolution, in bits."""
        return self.adc.bits_for(self.samples_per_revolution(speed_kmh))

    def _acquire_phase(self, speed_kmh: float, refresh_slow: bool) -> Phase:
        """The acquisition phase: sensors + ADC on, MCU idle buffering."""
        modes: dict[str, str] = {"adc": "active", "mcu": "idle", "sram": "active",
                                 "pmu": "active"}
        if self.sensors.use_accelerometer:
            modes["accelerometer"] = "active"
        if refresh_slow and self.sensors.use_pressure:
            modes["pressure_sensor"] = "active"
        if refresh_slow and self.sensors.use_temperature:
            modes["temperature_sensor"] = "active"
        if self.sensors.use_accelerometer:
            duration = self.patch_model.acquisition_window_s(speed_kmh)
        else:
            duration = self.sensors.slow_sensor_on_time_s
        return Phase(name="acquire", duration_s=duration, block_modes=modes)

    def _compute_phase(self, speed_kmh: float) -> Phase:
        """The computation phase: MCU + SRAM active."""
        samples = self.samples_per_revolution(speed_kmh)
        raw_bits = self.raw_bits_per_revolution(speed_kmh)
        duration = self.mcu.compute_time_s(samples, raw_bits)
        modes = {"mcu": "active", "sram": "active", "pmu": "active", "adc": "idle"}
        return Phase(name="compute", duration_s=duration, block_modes=modes)

    def _transmit_phases(self) -> list[Phase]:
        """Synthesizer start-up followed by the transmission burst.

        Speed-independent, so the (frozen) phases are built once per node
        instance and shared by every schedule.
        """

        def build() -> tuple[Phase, ...]:
            phases: list[Phase] = []
            if self.radio.startup_s > 0.0:
                phases.append(
                    Phase(
                        name="tx_startup",
                        duration_s=self.radio.startup_s,
                        block_modes={"rf_tx": "idle", "mcu": "idle", "pmu": "active"},
                    )
                )
            burst = self.radio.burst_duration_s(payload_scale=self.mcu.compression_ratio)
            phases.append(
                Phase(
                    name="transmit",
                    duration_s=burst,
                    block_modes={"rf_tx": "active", "mcu": "idle", "pmu": "active"},
                )
            )
            return tuple(phases)

        return list(_instance_memo(self, "_transmit_phases_memo", build))

    def _nvm_phase(self) -> Phase:
        """Occasional non-volatile log write (speed-independent, memoized)."""
        return _instance_memo(
            self,
            "_nvm_phase_memo",
            lambda: Phase(
                name="nvm_write",
                duration_s=self.memory.nvm_write_duration_s,
                block_modes={"nvm": "active", "mcu": "idle", "pmu": "active"},
            ),
        )

    def phase_pattern(self, revolution_index: int) -> tuple[bool, bool, bool]:
        """The conditional-phase pattern of one revolution.

        Returns the ``(transmits, refreshes_slow, writes_nvm)`` triple that,
        together with the speed, fully determines the revolution's schedule.
        The emulator's revolution-energy cache and the batch sweep APIs key
        on this pattern instead of the raw revolution index.
        """
        return (
            self.radio.transmits(revolution_index),
            self.sensors.refreshes_slow_sensors(revolution_index),
            self.memory.writes_nvm(revolution_index),
        )

    def phase_patterns(self, revolution_indices) -> np.ndarray:
        """:meth:`phase_pattern` of many revolutions as an ``(N, 3)`` bool array.

        Row ``i`` is ``phase_pattern(revolution_indices[i])``: the same
        modulo tests as the radio, sensor and memory configurations apply per
        revolution, evaluated elementwise.
        """
        indices = np.asarray(revolution_indices, dtype=np.int64)
        if np.any(indices < 0):
            raise ConfigurationError("revolution index must be non-negative")
        patterns = np.zeros((indices.size, 3), dtype=bool)
        patterns[:, 0] = indices % self.radio.tx_interval_revs == 0
        patterns[:, 1] = indices % self.sensors.slow_refresh_interval_revs == 0
        if self.memory.use_nvm:
            patterns[:, 2] = (indices % self.memory.nvm_write_interval_revs == 0) & (
                indices > 0
            )
        return patterns

    def schedule_for_pattern(
        self,
        speed_kmh: float,
        transmits: bool,
        refreshes_slow: bool,
        writes_nvm: bool,
    ) -> RevolutionSchedule:
        """Build the schedule of a wheel round with an explicit phase pattern.

        This is the pattern-addressed form of :meth:`schedule_for`: instead of
        deriving the conditional phases from a revolution index, the caller
        states them directly.  Batch sweeps (Monte-Carlo workload sampling,
        the fleet runner's cohort bins) use it to build one schedule per unique
        (speed, pattern) bin without inventing representative indices.

        Raises:
            ScheduleError: if the busy phases do not fit into the wheel-round
                period (the node cannot keep up at this speed).
        """
        if speed_kmh <= 0.0:
            raise ConfigurationError("a revolution schedule requires a positive speed")
        period = self.wheel.revolution_period_s(speed_kmh)
        phases: list[Phase] = [
            self._acquire_phase(speed_kmh, refreshes_slow),
            self._compute_phase(speed_kmh),
        ]
        if transmits:
            phases.extend(self._transmit_phases())
        if writes_nvm:
            phases.append(self._nvm_phase())
        return RevolutionSchedule(
            period_s=period,
            phases=tuple(phases),
            blocks=self.resting_modes(),
        )

    def schedule_for(
        self, speed_kmh: float, revolution_index: int = 0
    ) -> RevolutionSchedule:
        """Build the intra-revolution schedule for one wheel round.

        Args:
            speed_kmh: cruising speed of the revolution.
            revolution_index: ordinal of the revolution; it selects whether
                the slow sensors refresh, whether a packet is transmitted and
                whether an NVM write happens on this particular round.

        Raises:
            ScheduleError: if the busy phases do not fit into the wheel-round
                period (the node cannot keep up at this speed).
        """
        transmits, refreshes_slow, writes_nvm = self.phase_pattern(revolution_index)
        return self.schedule_for_pattern(
            speed_kmh,
            transmits=transmits,
            refreshes_slow=refreshes_slow,
            writes_nvm=writes_nvm,
        )

    def average_schedule_weights(self) -> dict[str, float]:
        """Per-revolution occurrence probability of the conditional phases.

        Used by the evaluator to average the energy of phases that do not
        happen on every revolution (transmission every N rounds, slow-sensor
        refresh, NVM writes) without enumerating revolutions.
        """
        weights = {
            "transmit": 1.0 / self.radio.tx_interval_revs,
            "tx_startup": 1.0 / self.radio.tx_interval_revs,
            "slow_refresh": 1.0 / self.sensors.slow_refresh_interval_revs,
        }
        if self.memory.use_nvm:
            weights["nvm_write"] = 1.0 / self.memory.nvm_write_interval_revs
        else:
            weights["nvm_write"] = 0.0
        return weights

    def phase_census(self, speed_kmh: float) -> list[tuple[Phase, float]]:
        """Every phase the node can execute in a wheel round, with its weight.

        The weight is the per-revolution occurrence probability of the phase
        (1.0 for unconditional phases).  Because energy is linear in phase
        durations, the average energy per revolution equals the resting
        energy over the full period plus the weighted incremental energy of
        each phase — which is how
        :class:`~repro.core.evaluator.EnergyEvaluator` computes Fig. 2
        without enumerating revolutions.

        The slow-sensor refresh appears as a separate zero-conflict phase
        carrying only the pressure/temperature mode overrides for the
        duration of the acquisition window; its energy adds on top of the
        unconditional acquire phase exactly as it would if the sensors were
        switched on inside it.
        """
        if speed_kmh <= 0.0:
            raise ConfigurationError("phase census requires a positive speed")
        weights = self.average_schedule_weights()
        census: list[tuple[Phase, float]] = []

        refresh_every_revolution = self.sensors.slow_refresh_interval_revs == 1
        # Revolution 1 never refreshes the slow sensors when the interval is
        # greater than one, so it yields the "plain" acquire phase; when the
        # interval is exactly one the refresh is already part of every acquire
        # phase and no separate increment must be added.
        acquire = self._acquire_phase(speed_kmh, refresh_slow=refresh_every_revolution)
        census.append((acquire, 1.0))

        slow_modes: dict[str, str] = {}
        if self.sensors.use_pressure:
            slow_modes["pressure_sensor"] = "active"
        if self.sensors.use_temperature:
            slow_modes["temperature_sensor"] = "active"
        if slow_modes and not refresh_every_revolution:
            census.append(
                (
                    Phase(
                        name="slow_refresh",
                        duration_s=acquire.duration_s,
                        block_modes=slow_modes,
                    ),
                    weights["slow_refresh"],
                )
            )

        census.append((self._compute_phase(speed_kmh), 1.0))

        for phase in self._transmit_phases():
            census.append((phase, weights[phase.name]))

        if self.memory.use_nvm:
            census.append((self._nvm_phase(), weights["nvm_write"]))
        return census

    def max_sustainable_speed_kmh(
        self, upper_bound_kmh: float = 400.0, tolerance_kmh: float = 0.5
    ) -> float:
        """Highest speed at which the busy phases still fit in a wheel round.

        Uses bisection between 1 km/h and ``upper_bound_kmh``.  Returns
        ``upper_bound_kmh`` if the node keeps up even there.
        """
        from repro.errors import ScheduleError

        def fits(speed: float) -> bool:
            try:
                # Revolution 0 is the worst case: it transmits and refreshes
                # the slow sensors.
                self.schedule_for(speed, revolution_index=0)
            except ScheduleError:
                return False
            return True

        low, high = 1.0, upper_bound_kmh
        if fits(high):
            return high
        if not fits(low):
            return 0.0
        while high - low > tolerance_kmh:
            middle = 0.5 * (low + high)
            if fits(middle):
                low = middle
            else:
                high = middle
        return low

    # -- derived architectures --------------------------------------------------

    def renamed(self, name: str) -> "SensorNode":
        """Return a copy of the architecture under a different name."""
        return replace(self, name=name)

    def with_radio(self, radio: RadioConfig) -> "SensorNode":
        """Return a copy with a different radio configuration."""
        return replace(self, radio=radio)

    def with_mcu(self, mcu: McuConfig) -> "SensorNode":
        """Return a copy with a different MCU configuration."""
        return replace(self, mcu=mcu)

    def with_sensors(self, sensors: SensorSuiteConfig) -> "SensorNode":
        """Return a copy with a different sensor suite."""
        return replace(self, sensors=sensors)

    def with_wheel(self, wheel: Wheel) -> "SensorNode":
        """Return a copy mounted in a different wheel."""
        return replace(self, wheel=wheel, contact_patch=None)

    def describe(self) -> str:
        """Multi-line architecture summary used by the examples."""
        lines = [f"Sensor Node architecture {self.name!r}"]
        for block in self.blocks():
            always = " (always on)" if block.always_on else ""
            lines.append(f"  - {block.name:<20s} {block.description}{always}")
        lines.append(
            f"  radio: packet {self.radio.packet_bits} bits @ "
            f"{self.radio.data_rate_bps / 1e3:.0f} kbps, "
            f"TX every {self.radio.tx_interval_revs} rev"
        )
        lines.append(
            f"  mcu workload: {self.mcu.base_cycles_per_revolution} + "
            f"{self.mcu.cycles_per_sample}/sample cycles @ "
            f"{self.mcu.clock_hz / 1e6:.0f} MHz"
        )
        return "\n".join(lines)
