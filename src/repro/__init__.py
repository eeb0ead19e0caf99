"""repro — SRC: storage-side rate control for NVMe-oF disaggregated storage.

A from-scratch Python reproduction of *"SRC: Mitigate I/O Throughput
Degradation in Network Congestion Control of Disaggregated Storage
Systems"* (Jia et al., IPDPS 2023), including every substrate the paper
builds on:

* :mod:`repro.sim` — shared discrete-event engine;
* :mod:`repro.ssd` — MQSim-style multi-queue SSD simulator (Table II);
* :mod:`repro.nvme` — NVMe driver layer: the default FIFO SQ and the
  paper's separate submission queues with token WRR (§III-A);
* :mod:`repro.net` — packet-level RDMA fabric with DCQCN, ECN, PFC,
  and a Clos topology builder (NS3-RDMA substitute);
* :mod:`repro.fabric` — NVMe-oF initiators/targets over the network;
* :mod:`repro.workloads` — micro and MMPP-synthetic trace generation,
  statistics, and the Ch feature extractor;
* :mod:`repro.ml` — from-scratch regressors (Table I) + evaluation;
* :mod:`repro.core` — SRC itself: the throughput prediction model,
  workload monitor, and Algorithm 1 dynamic weight adjustment;
* :mod:`repro.experiments` — harnesses regenerating every table and
  figure of the evaluation (see EXPERIMENTS.md).

Quickstart::

    from repro.ssd import SSD_A
    from repro.nvme import SSQDriver
    from repro.workloads import MicroWorkloadConfig, generate_micro_trace
    from repro.experiments import replay_on_device

    trace = generate_micro_trace(
        MicroWorkloadConfig(10_000, 40 * 1024), n_reads=2000, n_writes=2000, seed=1
    )
    result = replay_on_device(trace, SSD_A, SSQDriver(read_weight=1, write_weight=4))
    print(result.read_tput_gbps, result.write_tput_gbps)
"""

__version__ = "1.0.0"
