"""Packet-level RDMA network simulator (NS3-RDMA substitute).

Components:

* :mod:`repro.net.packet` — packets (data, CNP, PFC pause/resume);
* :mod:`repro.net.link` — rate/delay links with pause support;
* :mod:`repro.net.switch` — output-queued switches with RED-style ECN
  marking and PFC ingress accounting;
* :mod:`repro.net.dcqcn` — the DCQCN reaction-point state machine
  (rate cut on CNP, fast recovery / additive / hyper increase), with a
  listener hook that SRC subscribes to;
* :mod:`repro.net.nic` — host NICs: per-flow message queues (the RDMA
  TXQ), DCQCN pacing, notification-point CNP generation, reassembly;
* :mod:`repro.net.topology` — network container, Clos/fat-tree builder,
  ECMP routing tables;
* :mod:`repro.net.fluid` — fluid-approximated background flows for
  dual-fidelity runs (max-min shares + mean-field DCQCN coupled to the
  packet domain through ``Link.set_fluid_load``).
"""

from repro.net.packet import Packet, PacketKind
from repro.net.link import Link
from repro.net.dcqcn import DCQCNConfig, DCQCNRateControl, RateChange, fluid_rate_step
from repro.net.fluid import FluidConfig, FluidDomain, FluidFlow
from repro.net.switch import Switch, SwitchConfig
from repro.net.nic import NIC, Flow, NICConfig
from repro.net.topology import Network, build_clos, build_dumbbell, build_star

__all__ = [
    "Packet",
    "PacketKind",
    "Link",
    "DCQCNConfig",
    "DCQCNRateControl",
    "RateChange",
    "fluid_rate_step",
    "FluidConfig",
    "FluidDomain",
    "FluidFlow",
    "Switch",
    "SwitchConfig",
    "NIC",
    "Flow",
    "NICConfig",
    "Network",
    "build_clos",
    "build_dumbbell",
    "build_star",
]
