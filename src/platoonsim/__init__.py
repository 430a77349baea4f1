"""Fault-tolerant cooperative cruise control simulation for train platoons.

A deterministic numpy library (plus a small CLI) that models multi-carriage
trains as coupled mass points with first-order traction actuators subject to
constant and periodic faults, estimates the unmeasured acceleration and
fault states with per-carriage observers, closes the loop with distributed
backstepping and barrier-constrained controllers, and checks the gap,
velocity-difference and convergence requirements on the result.
"""

from .autodiff import Dual, gradient
from .controller import (ConstraintSpec, FollowerGains, HeadGains,
                         TrainPairErrors, barrier_phi, barrier_psi,
                         beta_functions, follower_control, head_control,
                         validate_initial, validate_parameters)
from .errors import (BarrierDomainError, ConfigurationError, IntegrationFault,
                     PlacementError, TimeseriesFormatError, Violation)
from .faults import FaultModel, exosystem_matrix
from .model import (CarriageParams, ConsistTopology, CouplerParams,
                    DavisCoefficients)
from .observer import (ObserverGains, build_augmented_pair,
                       check_observability, synthesize_gains)
from .presets import get_preset, paper_s5
from .reference import ReferencePhase, ReferenceProfile
from .simulator import (MonitorSpec, NoiseSpec, ScenarioConfig,
                        SimulationRecord, SummaryReport, fault_interval_errors,
                        inject_disturbance, monitor_requirements, rk4_step,
                        run_scenario, validate_config)

__version__ = "0.1.0"
