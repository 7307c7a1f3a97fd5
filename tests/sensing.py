"""Sensing stores for tests, written through `SensingStore.record_subframe`,
the one path by which the engine fills them."""

import numpy as np

from cv2xsim.mac_sps import SensingStore, SensingWindow

NOISE_MW = 1e-10  # -100 dBm
# The decode arrays of a record in which nothing was decoded
NO_DECODES = (np.zeros(0, dtype=int),) * 4 + (np.zeros(0),)


def build_window(records, span=30, n_subch=2):
    """A one-UE window from (subframe, S-RSSI dBm per subchannel, sensed,
    reservations) records, each reservation (subchannel, source, period,
    PSSCH-RSRP dBm) and at most one per subchannel; each record is a batch of
    one subframe."""
    store = SensingStore(1, n_subch, span, NOISE_MW)
    for n, srssi_dbm, sensed, reservations in records:
        row = np.array([[[10 ** (v / 10.0) for v in srssi_dbm]]])
        decodes = (np.zeros(len(reservations), dtype=int), np.zeros(len(reservations), dtype=int),
                   np.array([subch for subch, _, _, _ in reservations], dtype=int),
                   np.array([period for _, _, period, _ in reservations], dtype=int),
                   np.array([rsrp for _, _, _, rsrp in reservations]))
        store.record_subframe(n, row, np.array([[sensed]]), decodes)
    return SensingWindow(store, 0)


def recorded_count(store):
    """Subframes of the sensing span that hold a record."""
    return int(np.count_nonzero(store.recorded(store.oldest_valid(), store.newest)))
