"""DPLL search-tree growth on random 2+p-SAT.

Subpackages:
  cnf        - instances as packed-literal buffers, the clause classifier, DIMACS
  dpll       - instrumented backtracking solver (UC / GUC / SC1)
  oracle     - exact evolution operator and branch function on small instances
  trajectory - single-branch ODE trajectories in the (p, alpha) phase diagram
  growth     - search-tree growth PDE via characteristics; omega predictions
  annealed   - clause-vector Markov chain for expected branch counts
  ensemble   - seeded Monte Carlo experiment harness and omega extrapolation
  report     - CSV/JSON report generation
"""

__version__ = "0.1.0"
