"""The benchmark's calls into the package still work.

perfbench/ runs the package through workloads.run_round and checks every
output with oracle.check_round; both are imported here unchanged (the
test config puts perfbench/ on the path).  One reduced round, with the
smallest sphere and offset-sphere ladders on which every oracle check
holds, a sphere flow, the offset-base operation and the CLI session,
must come out correct with no failed operation.  So a change that breaks
a call the benchmark makes, or a value it reads, fails here first.
"""

import numpy as np

import oracle
import tracer
import workloads

SPHERE = workloads.Shape("sphere", 2, levels=(8, 12, 16))
# at 12x24 the offset sphere's hk-shifted misses the oracle's 1e-3 equality
OFFSET = workloads.Shape("sphere-offset-0.3", 2, offset=0.3, levels=(16, 24, 32))
CONTRACT = workloads.Workload("contract", (SPHERE, OFFSET), ((SPHERE, 8, False),),
                              offset_base=True)


def test_reduced_round_is_correct(tmp_path):
    rnd = workloads.run_round(CONTRACT, np.random.default_rng(1), str(tmp_path),
                              tracer.NullTracer())
    # six verifications, three CLI calls, one flow, the offset base
    assert rnd.operations() == 11
    chk = oracle.Checks()
    failed = oracle.check_round(chk, CONTRACT, rnd, {})
    assert chk.failures == []
    assert failed == 0
