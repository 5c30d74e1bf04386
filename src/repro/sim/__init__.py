"""Discrete-event RDMA network simulator with PFC (the NS-3 substitute)."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "config": ("EcnConfig", "PfcConfig", "SimConfig"),
    "engine": ("EventHandle", "Simulator"),
    "flow": ("Flow",),
    "host": ("Host",),
    "network": ("Network",),
    "packet": (
        "ACK_SIZE", "CNP_SIZE", "CONTROL_PRIORITY", "DATA_PRIORITY",
        "PFC_FRAME_SIZE", "POLLING_PACKET_SIZE", "FlowKey", "Packet",
        "PacketType", "PollingFlag", "pause_quanta_to_ns",
    ),
    "switch": ("Switch", "SwitchObserver", "SwitchStats"),
})
