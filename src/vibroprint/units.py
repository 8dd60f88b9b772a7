"""Boundary unit conversions.

Everything inside the library is SI (m, kg, s, Pa, Hz).  Config files and
the CLI speak the bench units used on the printer and datasheets
(mm, g/cm3, MPa, kHz); these helpers are the single place where the
conversion happens.
"""

MM_PER_M = 1e3
MPA_PER_PA = 1e-6
G_CM3_PER_KG_M3 = 1e-3


def mm_to_m(value_mm: float) -> float:
    return value_mm / MM_PER_M


def m_to_mm(value_m: float) -> float:
    return value_m * MM_PER_M


def mpa_to_pa(value_mpa: float) -> float:
    return value_mpa / MPA_PER_PA


def g_cm3_to_kg_m3(value_g_cm3: float) -> float:
    return value_g_cm3 / G_CM3_PER_KG_M3


def khz_to_hz(value_khz: float) -> float:
    return value_khz * 1e3


def hz_to_khz(value_hz: float) -> float:
    return value_hz / 1e3
