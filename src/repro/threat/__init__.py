"""Threat-modelling substrate.

This subpackage implements the classical *application threat modelling*
process that the paper (Section II, Fig. 1) builds on:

* :mod:`repro.threat.stride` -- the STRIDE threat-categorisation model.
* :mod:`repro.threat.dread` -- the DREAD risk-rating model.
* :mod:`repro.threat.assets` -- assets and the asset registry.
* :mod:`repro.threat.entry_points` -- entry points (attack surfaces).
* :mod:`repro.threat.threats` -- threats and threat catalogues.
* :mod:`repro.threat.attack_tree` -- attack trees over threats.
* :mod:`repro.threat.graph` -- the ordered acyclic graph behind asset
  dependencies and attack trees.
* :mod:`repro.threat.countermeasures` -- countermeasures (guidelines,
  policies, hardware/software mechanisms).
* :mod:`repro.threat.risk` -- risk assessment and prioritisation.
* :mod:`repro.threat.model` -- the assembled threat-model document.
* :mod:`repro.threat.report` -- plain-text report rendering.

The output of this substrate (a :class:`~repro.threat.model.ThreatModel`)
is the input of the paper's contribution, the policy derivation in
:mod:`repro.core.derivation`.
"""

from repro.threat.assets import Asset, AssetCategory, AssetRegistry, Criticality
from repro.threat.attack_tree import AttackTree, AttackTreeNode, NodeType
from repro.threat.countermeasures import (
    Countermeasure,
    CountermeasureCatalog,
    CountermeasureKind,
)
from repro.threat.dread import DreadScore, RiskLevel
from repro.threat.entry_points import EntryPoint, EntryPointRegistry, InterfaceKind
from repro.threat.model import ThreatModel, ThreatModelStep
from repro.threat.risk import RiskAssessment, RiskMatrix
from repro.threat.stride import StrideCategory, StrideClassification
from repro.threat.threats import Threat, ThreatCatalog

__all__ = [
    "Asset",
    "AssetCategory",
    "AssetRegistry",
    "AttackTree",
    "AttackTreeNode",
    "Countermeasure",
    "CountermeasureCatalog",
    "CountermeasureKind",
    "Criticality",
    "DreadScore",
    "EntryPoint",
    "EntryPointRegistry",
    "InterfaceKind",
    "NodeType",
    "RiskAssessment",
    "RiskLevel",
    "RiskMatrix",
    "StrideCategory",
    "StrideClassification",
    "Threat",
    "ThreatCatalog",
    "ThreatModel",
    "ThreatModelStep",
]
