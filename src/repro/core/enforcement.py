"""Fit and synchronise enforcement on a vehicle.

The :class:`EnforcementCoordinator` is the deployment side of the
paper's proposal (Section V-B): it takes the derived
:class:`~repro.core.policy.SecurityPolicy` and fits the vehicle with the
selected enforcement mechanisms --

* a :class:`~repro.hpe.engine.HardwarePolicyEngine` per CAN node,
  programmed with the effective approved read/write lists for the
  current operating situation and reprogrammed (through the authorised
  configuration channel) whenever the situation changes; and/or
* an SELinux-style :class:`~repro.selinux.hooks.SoftwareEnforcementPoint`
  guarding application operations on the infotainment system.

The :class:`EnforcementConfig` selects which mechanisms are active so
the ablation benchmark can compare configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policy import CarSituation, SecurityPolicy
from repro.core.policy_engine import PolicyEvaluator
from repro.hpe.engine import HardwarePolicyEngine
from repro.hpe.tamper import TamperSource
from repro.selinux.contexts import LabelStore
from repro.selinux.hooks import EnforcementMode, SoftwareEnforcementPoint
from repro.selinux.policy_store import ModularPolicyStore, PolicyModule
from repro.selinux.te import AllowRule
from repro.vehicle.car import ConnectedCar

#: The configuration key shared between the coordinator (the OEM's trusted
#: update path) and the hardware policy engines it manages.
_CONFIGURATION_KEY = 0x5EC0DE


@dataclass(frozen=True)
class EnforcementConfig:
    """Which enforcement mechanisms are fitted to the vehicle.

    ``compile_tables`` selects the HPE decision path: when ``True``
    (the default) the coordinator lowers every pushed approved list
    into a :class:`~repro.core.compiled.CompiledDecisionTable` so
    permit checks are a single bitmask probe; when ``False`` engines
    decide through the approved-list object path only.  Decisions are
    bit-identical either way (the equivalence tests prove it); the flag
    exists so benchmarks can measure the difference.
    """

    use_hpe: bool = True
    use_selinux: bool = True
    selinux_mode: EnforcementMode = EnforcementMode.ENFORCING
    compile_tables: bool = True

    @classmethod
    def none(cls) -> "EnforcementConfig":
        """No runtime enforcement (the unprotected baseline)."""
        return cls(use_hpe=False, use_selinux=False)

    @classmethod
    def software_only(cls) -> "EnforcementConfig":
        """SELinux only (no hardware policy engines)."""
        return cls(use_hpe=False, use_selinux=True)

    @classmethod
    def hardware_only(cls) -> "EnforcementConfig":
        """Hardware policy engines only (no SELinux)."""
        return cls(use_hpe=True, use_selinux=False)

    @classmethod
    def full(cls) -> "EnforcementConfig":
        """Both hardware and software enforcement."""
        return cls(use_hpe=True, use_selinux=True)

    @property
    def label(self) -> str:
        """Short label used in reports and benchmarks."""
        if self.use_hpe and self.use_selinux:
            return "hpe+selinux"
        if self.use_hpe:
            return "hpe-only"
        if self.use_selinux:
            return "selinux-only"
        return "unprotected"

    @classmethod
    def from_label(
        cls,
        label: str,
        *,
        selinux_mode: EnforcementMode = EnforcementMode.ENFORCING,
        compile_tables: bool = True,
    ) -> "EnforcementConfig":
        """The inverse of :attr:`label`: parse a short label back to a config.

        CLI and serialised experiment configs carry enforcement as the
        label string; this turns it back into the mechanism flags.
        ``from_label(config.label)`` round-trips for every config built
        from the named constructors.  Unknown labels raise ``ValueError``
        (listing the known ones) instead of silently building something
        else.
        """
        flags = {
            "unprotected": (False, False),
            "selinux-only": (False, True),
            "hpe-only": (True, False),
            "hpe+selinux": (True, True),
        }
        try:
            use_hpe, use_selinux = flags[label]
        except KeyError:
            raise ValueError(
                f"unknown enforcement label {label!r}; known: {sorted(flags)}"
            ) from None
        return cls(
            use_hpe=use_hpe,
            use_selinux=use_selinux,
            selinux_mode=selinux_mode,
            compile_tables=compile_tables,
        )


class EnforcementCoordinator:
    """Deploys and maintains policy enforcement on one vehicle."""

    def __init__(
        self,
        policy: SecurityPolicy,
        catalog=None,
        config: EnforcementConfig | None = None,
        selinux_module: PolicyModule | None = None,
        evaluator: PolicyEvaluator | None = None,
    ) -> None:
        self.policy = policy
        self.config = config if config is not None else EnforcementConfig.full()
        self.selinux_module = selinux_module
        self._catalog = catalog
        # A caller-supplied evaluator may be shared across many
        # coordinators (one per fleet vehicle) so its decision cache
        # serves every car built from the same derived policy.
        self._evaluator: PolicyEvaluator | None = (
            evaluator
            if evaluator is not None
            else PolicyEvaluator(catalog) if catalog is not None else None
        )
        self.engines: dict[str, HardwarePolicyEngine] = {}
        self.enforcement_point: SoftwareEnforcementPoint | None = None
        self.policy_store: ModularPolicyStore | None = None
        self.sync_count = 0
        self.policy_pushes = 0
        #: The policy the coordinator was fitted with; pool reuse
        #: restores it after OTA updates replaced :attr:`policy`.
        self._fitted_policy: SecurityPolicy | None = None
        #: SELinux module versions as of ``fit`` (store-change detection).
        self._fitted_modules: dict[str, int] = {}

    # -- fitting -----------------------------------------------------------------------

    def fit(self, car: ConnectedCar) -> None:
        """Fit the configured enforcement mechanisms to *car*.

        The coordinator registers itself on the car (as
        ``car.enforcement_coordinator``) and as a mode-change listener so
        that situation-dependent policies stay synchronised.
        """
        if self._evaluator is None:
            self._catalog = car.catalog
            self._evaluator = PolicyEvaluator(car.catalog)
        self._fitted_policy = self.policy
        if self.config.use_hpe:
            self._fit_hardware_engines(car)
        if self.config.use_selinux:
            self._fit_software_enforcement(car)
        car.enforcement_coordinator = self
        car.add_mode_listener(lambda previous, new: self.sync(car))
        self.sync(car)

    def _fit_hardware_engines(self, car: ConnectedCar) -> None:
        situation = CarSituation.observe(car)
        effective = self._evaluator.effective_for_all(
            self.policy, situation, nodes=car.node_names()
        )
        for ecu in car.ecus():
            node_policy = effective.get(ecu.name)
            engine = HardwarePolicyEngine(
                node_name=ecu.name,
                approved_reads=sorted(node_policy.read_ids) if node_policy else (),
                approved_writes=sorted(node_policy.write_ids) if node_policy else (),
                configuration_key=_CONFIGURATION_KEY,
            )
            self.engines[ecu.name] = engine
            ecu.node.policy_engine = engine

    def _fit_software_enforcement(self, car: ConnectedCar) -> None:
        labels = LabelStore()
        infotainment = car.infotainment
        labels.label_domain(infotainment.SUBJECT_MEDIA_DISPLAY, "infotainment_media_t")
        labels.label_domain(infotainment.SUBJECT_SYSTEM_UPDATER, "infotainment_updater_t")
        labels.label_object(infotainment.OBJECT_SOFTWARE_STORE, "software_store_t")
        labels.label_object(infotainment.OBJECT_VEHICLE_BUS, "vehicle_can_t")

        store = ModularPolicyStore(
            base_types=(
                "infotainment_media_t",
                "infotainment_updater_t",
                "software_store_t",
                "vehicle_can_t",
            )
        )
        module = self.selinux_module if self.selinux_module is not None else self._default_module()
        store.install(module)
        point = SoftwareEnforcementPoint(store, labels, mode=self.config.selinux_mode)
        infotainment.attach_enforcement_point(point)
        self.enforcement_point = point
        self.policy_store = store
        self._fitted_modules = {m.name: m.version for m in store}

    def _default_module(self) -> PolicyModule:
        """A minimal application policy when the derivation produced none.

        The system updater may install packages and the media display may
        read the vehicle bus; everything else (media-display installs,
        media-display bus writes) is denied by default.
        """
        rules = (
            AllowRule(
                source_type="infotainment_updater_t",
                target_type="software_store_t",
                tclass="package",
                permissions=frozenset({"install", "verify"}),
            ),
            AllowRule(
                source_type="infotainment_media_t",
                target_type="vehicle_can_t",
                tclass="can_bus",
                permissions=frozenset({"read"}),
            ),
        )
        return PolicyModule(
            name="infotainment-base",
            version=1,
            types=(
                "infotainment_media_t",
                "infotainment_updater_t",
                "software_store_t",
                "vehicle_can_t",
            ),
            rules=rules,
            description="Default infotainment application policy",
        )

    # -- synchronisation -----------------------------------------------------------------

    def sync(self, car: ConnectedCar) -> CarSituation:
        """Recompute and push situation-dependent approved lists.

        Called automatically on mode changes and by attack scenarios /
        applications after they change the operating situation (motion,
        alarm, accident).  Returns the situation that was applied.
        """
        self.sync_count += 1
        situation = CarSituation.observe(car)
        if self.config.use_hpe and self.engines:
            # One cached plan holds every engine's lists and table for
            # this (policy, situation), shared by every car the evaluator
            # serves.  Every engine still gets its push: a push whose
            # lists are unchanged keeps the engine's table and the bus's
            # fan-out plans (see HardwarePolicyEngine.update_policy).
            plan = self._evaluator.push_plan(
                self.policy, situation, tuple(self.engines), self.config.compile_tables
            )
            for engine, (reads, writes, table) in zip(self.engines.values(), plan):
                if engine.update_policy(
                    reads, writes, key=_CONFIGURATION_KEY, source=TamperSource.OEM_UPDATE_CHANNEL
                ):
                    self.policy_pushes += 1
                    if table is not None:
                        engine.install_compiled_table(table)
        return situation

    # -- pool reuse ------------------------------------------------------------------------

    def reset_for_reuse(self, car: ConnectedCar) -> None:
        """Restore the coordinator and its engines to the just-fitted state.

        Called by :meth:`repro.vehicle.car.ConnectedCar.reset` after the
        vehicle itself is pristine again.  The original fitted policy is
        re-activated (undoing any OTA successors), counters and logs are
        dropped, and one :meth:`sync` runs -- exactly what the tail of
        :meth:`fit` did on first build, so a reused car's observable
        enforcement state (push counters, tamper-log shape, approved
        lists, compiled tables) matches a freshly built one bit for bit.
        """
        if self._fitted_policy is not None:
            self.policy = self._fitted_policy
        self.sync_count = 0
        self.policy_pushes = 0
        for engine in self.engines.values():
            engine.reset_for_reuse()
        if self.config.use_selinux and self.enforcement_point is not None:
            store = self.policy_store
            modules = {m.name: m.version for m in store} if store is not None else {}
            if modules == getattr(self, "_fitted_modules", modules):
                # Store untouched since fit: reuse it and just clear the
                # point's run state (the AVC stays warm -- decisions are
                # pure functions of the unchanged store).
                point = self.enforcement_point
                point.mode = self.config.selinux_mode
                point.audit_log.clear()
                point.checks_performed = 0
                point.denials = 0
                car.infotainment.attach_enforcement_point(point)
            else:
                # Run-time module installs happened: rebuild the store so
                # the reused car matches a fresh fit.
                self._fit_software_enforcement(car)
        self.sync(car)

    # -- policy updates --------------------------------------------------------------------

    def apply_policy(self, policy: SecurityPolicy, car: ConnectedCar) -> None:
        """Replace the active policy (a post-deployment policy update) and re-sync.

        The replacement must strictly supersede the enforced version so a
        replayed or stale update cannot roll enforcement back.
        """
        if policy.version <= self.policy.version:
            raise ValueError(
                f"policy version {policy.version} does not supersede active "
                f"version {self.policy.version}"
            )
        # The evaluator's decision cache keys entries by policy digest
        # (content), so a superseding policy another car already
        # enforces is served warm, and the old policy's entries age out
        # of the LRU -- no explicit flush needed (which matters when the
        # evaluator is shared across a fleet).
        self.policy = policy
        self.sync(car)

    def install_app_module(self, module: PolicyModule) -> None:
        """Install or upgrade an application-level (SELinux) policy module."""
        if self.policy_store is None:
            raise RuntimeError("software enforcement is not fitted")
        self.policy_store.install(module)

    # -- reporting ----------------------------------------------------------------------------

    def total_hpe_blocks(self) -> int:
        """Total frames blocked across all fitted hardware engines."""
        return sum(engine.frames_blocked for engine in self.engines.values())

    def total_hpe_decisions(self) -> int:
        """Total decisions evaluated across all fitted hardware engines."""
        return sum(engine.decisions_made for engine in self.engines.values())

    def tamper_rejections(self) -> int:
        """Total rejected tamper attempts across all fitted hardware engines."""
        return sum(len(engine.tamper_log.rejected()) for engine in self.engines.values())


def build_protected_car(
    policy: SecurityPolicy,
    config: EnforcementConfig | None = None,
    selinux_module: PolicyModule | None = None,
    start_periodic_traffic: bool = False,
) -> ConnectedCar:
    """Convenience: build a standard car and fit enforcement in one call."""
    car = ConnectedCar(start_periodic_traffic=start_periodic_traffic)
    coordinator = EnforcementCoordinator(
        policy=policy, catalog=car.catalog, config=config, selinux_module=selinux_module
    )
    coordinator.fit(car)
    return car
