"""Energy accounting and energy-balanced forwarding policy (Section 4.2).

The battery and cost constants live in :mod:`repro.energy.model`; the
waiting period's NID modulus and energy floor in
:mod:`repro.energy.policy`.
"""

from repro.energy.model import EnergyModel, NodeEnergy
from repro.energy.policy import WaitingPeriodPolicy

__all__ = ["EnergyModel", "NodeEnergy", "WaitingPeriodPolicy"]
