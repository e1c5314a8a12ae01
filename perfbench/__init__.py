"""The repository's benchmark of record: end-to-end cost of PEP profiling.

Three workloads drive the system through its public functions only:

* ``suite-adaptive`` — Fig. 11's production configuration on the 17
  curated workloads (PEP(64,17) collecting and driving the adaptive
  optimizer, resilience layer attached, jittered timer);
* ``corpus-startup`` — many short generated programs through the same
  adaptive path: the start-up regime, dominated by compilation;
* ``suite-replay`` — the paper's replay methodology: ``prepare``, then
  the PEP(64,17) iteration-2 run, perfect profiles, and accuracy scoring.

Wall time is normalised by a pure-Python calibration loop measured
right before and after each program (:mod:`perfbench.calibrate`);
every measured program is checked against the tuple-interpreter oracle
(:mod:`perfbench.workloads`); a separate traced run wraps the public
layer functions in spans (:mod:`perfbench.spans`).  Entry point:
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.
"""

WORKLOADS = ("suite-adaptive", "corpus-startup", "suite-replay")
