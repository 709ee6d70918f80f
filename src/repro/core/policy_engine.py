"""Evaluate a security policy into effective per-node approved lists.

The hardware policy engine of Fig. 4 consumes flat approved identifier
lists; the security policy is written at the level of named messages,
car modes and operating situations.  :class:`PolicyEvaluator` bridges
the two: given the message catalogue, the policy and the observed
situation it computes, for every node, the set of identifiers the node
may read and write *right now*.  The enforcement coordinator pushes
those sets into each node's HPE through the authorised configuration
channel whenever the situation changes.

Evaluation order (most specific wins):

1. Base allowance from the message catalogue: a node may write the
   messages it legitimately produces and read the messages it
   legitimately consumes, restricted to messages whose ``allowed_modes``
   include the current mode.
2. ``allow`` rules matching the situation add messages back (situational
   exceptions, e.g. theft-protection immobilisation while parked and
   armed).
3. ``deny`` rules matching the situation remove messages.  Deny always
   wins over allow.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.compiled import CompiledDecisionTable
from repro.core.policy import AccessRule, CarSituation, RuleEffect, SecurityPolicy
from repro.vehicle.messages import MessageCatalog


@dataclass(frozen=True)
class EffectiveNodePolicy:
    """The effective approved identifier sets for one node in one situation."""

    node: str
    read_ids: frozenset[int]
    write_ids: frozenset[int]

    def may_read(self, can_id: int) -> bool:
        """Whether the node may consume frames with this identifier."""
        return can_id in self.read_ids

    def may_write(self, can_id: int) -> bool:
        """Whether the node may emit frames with this identifier."""
        return can_id in self.write_ids

    @property
    def sorted_read_ids(self) -> tuple[int, ...]:
        """The read identifiers in ascending order, as a push carries them."""
        return tuple(sorted(self.read_ids))

    @property
    def sorted_write_ids(self) -> tuple[int, ...]:
        """The write identifiers in ascending order, as a push carries them."""
        return tuple(sorted(self.write_ids))


#: What one sync pushes: per node, ``(sorted read ids, sorted write ids,
#: compiled table or None)`` (see :meth:`PolicyEvaluator.push_plan`).
PushPlan = tuple[tuple[tuple[int, ...], tuple[int, ...], CompiledDecisionTable | None], ...]


class PolicyEvaluator:
    """Compute effective per-node approved lists from a security policy.

    Evaluation results are cached in an LRU keyed by ``(policy digest,
    node, situation)``, mirroring the SELinux access-vector cache
    (:class:`repro.selinux.avc.AccessVectorCache`): the fleet hot path
    -- fitting and synchronising thousands of vehicles that share one
    derived policy -- would otherwise recompute identical effective
    policies for every car.  The digest
    (:attr:`~repro.core.policy.SecurityPolicy.digest`) names a policy by
    content, so equal-content policy objects -- the base policy, or the
    OTA successor every vehicle of a rollout parses from one signed
    bundle -- share one effective policy and one compiled table, and a
    staggered rollout that interleaves the two keeps both warm.
    ``cache_capacity`` bounds each LRU.

    Invalidation: an in-place ``add_rule``/``remove_rule`` edit changes
    the policy's digest and therefore the key; entries for content no
    longer enforced age out of the LRU.
    """

    def __init__(self, catalog: MessageCatalog, cache_capacity: int = 256) -> None:
        if cache_capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.catalog = catalog
        self._cache_capacity = cache_capacity
        #: key: (policy digest, node, situation)
        self._cache: OrderedDict[tuple, EffectiveNodePolicy] = OrderedDict()
        #: Compiled decision tables, cached alongside the effective
        #: policies under the same keys.
        self._compiled: OrderedDict[tuple, CompiledDecisionTable] = OrderedDict()
        #: key: (policy digest, situation, nodes, compile_tables)
        self._push_plans: OrderedDict[tuple, PushPlan] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_flushes = 0
        self.compile_hits = 0
        self.compile_misses = 0

    # -- decision cache ----------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached effective policy, compiled table and push plan."""
        self._cache.clear()
        self._compiled.clear()
        self._push_plans.clear()
        self.cache_flushes += 1

    @property
    def cache_size(self) -> int:
        """Number of cached (policy, node, situation) decisions."""
        return len(self._cache)

    @property
    def cache_hit_rate(self) -> float:
        """Cache hit rate over the evaluator's lifetime (0.0 when unused)."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def metrics_delta(self) -> dict[str, int]:
        """Cache-counter increments since the previous call (telemetry export).

        The evaluator's hit/miss counters are lifetime totals shared by
        every car the builder fits; telemetry wants per-chunk deltas so
        worker snapshots merge into exact fleet-wide totals.  Each call
        returns what changed since the last one and remembers the new
        baseline -- the fleet runner drains this once per chunk into the
        active registry (as ``policy.cache_hits`` etc.), so the hot
        decision path itself carries no instrumentation at all.
        """
        current = {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_flushes": self.cache_flushes,
            "compile_hits": self.compile_hits,
            "compile_misses": self.compile_misses,
        }
        previous = getattr(self, "_metrics_baseline", None) or {}
        self._metrics_baseline = current
        return {key: value - previous.get(key, 0) for key, value in current.items()}

    # -- single node -------------------------------------------------------------------

    def effective_for_node(
        self, node: str, policy: SecurityPolicy, situation: CarSituation
    ) -> EffectiveNodePolicy:
        """The effective read/write identifier sets for *node* in *situation*."""
        key = (policy.digest, node, situation)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self.cache_misses += 1
        effective = self._compute_for_node(node, policy, situation)
        self._cache[key] = effective
        if len(self._cache) > self._cache_capacity:
            self._cache.popitem(last=False)
        return effective

    def compile_for_node(
        self, node: str, policy: SecurityPolicy, situation: CarSituation
    ) -> CompiledDecisionTable:
        """Lower the evaluated ``(policy, node, situation)`` decision to a table.

        The table is the flat-bitmask form of
        :meth:`effective_for_node`'s result (see
        :mod:`repro.core.compiled`), cached in its own LRU under the
        same key and invalidation rules as the effective-policy cache,
        so every car in a worker shares one table per decision.
        """
        key = (policy.digest, node, situation)
        cached = self._compiled.get(key)
        if cached is not None:
            self.compile_hits += 1
            self._compiled.move_to_end(key)
            return cached
        self.compile_misses += 1
        table = CompiledDecisionTable.from_effective(
            self.effective_for_node(node, policy, situation)
        )
        self._compiled[key] = table
        if len(self._compiled) > self._cache_capacity:
            self._compiled.popitem(last=False)
        return table

    def push_plan(
        self,
        policy: SecurityPolicy,
        situation: CarSituation,
        nodes: tuple[str, ...],
        compile_tables: bool = True,
    ) -> PushPlan:
        """Everything one sync pushes to *nodes* in *situation*.

        One ``(sorted read ids, sorted write ids, compiled table)``
        entry per node, in the order of *nodes*; the table is ``None``
        without *compile_tables*.  Plans are cached in their own LRU
        under ``(policy digest, situation, nodes, compile_tables)``, so
        a repeated push costs one lookup instead of two per node.  A
        plan hit counts as the per-node lookups it replaces -- one
        cache hit per node, and one compile hit per node when it
        carries tables -- so the hit counters read as if every node had
        been looked up.
        """
        key = (policy.digest, situation, nodes, compile_tables)
        plan = self._push_plans.get(key)
        if plan is not None:
            self._push_plans.move_to_end(key)
            self.cache_hits += len(nodes)
            if compile_tables:
                self.compile_hits += len(nodes)
            return plan
        entries = []
        for node in nodes:
            effective = self.effective_for_node(node, policy, situation)
            table = self.compile_for_node(node, policy, situation) if compile_tables else None
            entries.append((effective.sorted_read_ids, effective.sorted_write_ids, table))
        plan = self._push_plans[key] = tuple(entries)
        if len(self._push_plans) > self._cache_capacity:
            self._push_plans.popitem(last=False)
        return plan

    def _compute_for_node(
        self, node: str, policy: SecurityPolicy, situation: CarSituation
    ) -> EffectiveNodePolicy:
        read_names = {
            m.name
            for m in self.catalog.consumed_by(node)
            if m.allowed_in_mode(situation.mode)
        }
        write_names = {
            m.name
            for m in self.catalog.produced_by(node)
            if m.allowed_in_mode(situation.mode)
        }

        applicable = [r for r in policy.access_rules if r.applies(node, situation)]
        self._apply_rules(applicable, RuleEffect.ALLOW, read_names, write_names)
        self._apply_rules(applicable, RuleEffect.DENY, read_names, write_names)

        return EffectiveNodePolicy(
            node=node,
            read_ids=frozenset(self._to_ids(read_names)),
            write_ids=frozenset(self._to_ids(write_names)),
        )

    def _apply_rules(
        self,
        rules: list[AccessRule],
        effect: RuleEffect,
        read_names: set[str],
        write_names: set[str],
    ) -> None:
        all_names = {m.name for m in self.catalog}
        for rule in rules:
            if rule.effect != effect:
                continue
            covered = all_names if "*" in rule.messages else set(rule.messages) & all_names
            if effect == RuleEffect.ALLOW:
                if rule.direction.covers_read:
                    read_names |= covered
                if rule.direction.covers_write:
                    write_names |= covered
            else:
                if rule.direction.covers_read:
                    read_names -= covered
                if rule.direction.covers_write:
                    write_names -= covered

    def _to_ids(self, names: set[str]) -> set[int]:
        return {self.catalog.by_name(name).can_id for name in names}

    # -- whole system -------------------------------------------------------------------

    def effective_for_all(
        self, policy: SecurityPolicy, situation: CarSituation, nodes: list[str] | None = None
    ) -> dict[str, EffectiveNodePolicy]:
        """Effective policies for every node in the catalogue (or *nodes*)."""
        node_names = nodes if nodes is not None else self.catalog.nodes()
        return {
            node: self.effective_for_node(node, policy, situation) for node in node_names
        }

    def decision_matrix(
        self, policy: SecurityPolicy, situation: CarSituation
    ) -> dict[tuple[str, str, str], bool]:
        """Full (node, message, direction) -> permitted matrix for analysis."""
        matrix: dict[tuple[str, str, str], bool] = {}
        for node, effective in self.effective_for_all(policy, situation).items():
            for message in self.catalog:
                matrix[(node, message.name, "read")] = message.can_id in effective.read_ids
                matrix[(node, message.name, "write")] = message.can_id in effective.write_ids
        return matrix

    def changed_nodes(
        self,
        policy: SecurityPolicy,
        before: CarSituation,
        after: CarSituation,
    ) -> list[str]:
        """Nodes whose effective lists differ between two situations.

        An analysis helper.  The enforcement coordinator does not use it
        to skip engines: every sync pushes to every engine, because each
        push counts in ``policy_pushes`` and in the engine's tamper log.
        An engine whose lists did not change keeps its compiled table
        (see :meth:`repro.hpe.engine.HardwarePolicyEngine.update_policy`).
        """
        changed: list[str] = []
        for node in self.catalog.nodes():
            if self.effective_for_node(node, policy, before) != self.effective_for_node(
                node, policy, after
            ):
                changed.append(node)
        return changed
