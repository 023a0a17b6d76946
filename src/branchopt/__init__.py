"""Robust trajectory optimization for hybrid systems with uncertain
contact timing.

Submodules:
  autodiff       forward-mode derivatives from a recorded, replayed tape
  nlp            block-sparse augmented-Lagrangian NLP solver
  hybrid         hybrid-system definition (flow, guard, impact law)
  transcription  multiple-shooting transcription of the three formulations
  pipeline       staged (warm-started) solving of the branched problems
  simulation     RK4 + impulse-event contact simulator
  contact2d      closed-form frictional contact impulse
  control        LQR-designed tracking control and branch scheduling
  plants         cart-pole-with-wall and planar-arm ball-catch models
  bench          Monte-Carlo / trade-off / catch-speed studies
  config         declarative YAML run configuration
  cli            command-line harness
"""

__version__ = "0.1.0"

__all__ = [
    "autodiff", "nlp", "hybrid", "transcription", "pipeline", "simulation",
    "contact2d", "control", "plants", "bench", "config", "cli",
]
