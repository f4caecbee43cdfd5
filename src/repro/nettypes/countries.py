"""ISO 3166 country registry.

The IYP refinement pass (Section 2.3) guarantees that every Country node
carries a two-letter code, a three-letter code, and a common name.  This
module is the authoritative registry backing that pass.  The table covers
the economies that appear in the RIR delegated files used by the synthetic
world; it is a data table, not an algorithm, so extending it is a one-line
change per country.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class CountryInfo:
    """One ISO 3166 economy."""

    alpha2: str
    alpha3: str
    name: str
    region: str


class UnknownCountryError(KeyError):
    """Raised when a country code is not in the registry."""


_COUNTRIES = [
    CountryInfo("AE", "ARE", "United Arab Emirates", "Asia"),
    CountryInfo("AR", "ARG", "Argentina", "Americas"),
    CountryInfo("AT", "AUT", "Austria", "Europe"),
    CountryInfo("AU", "AUS", "Australia", "Oceania"),
    CountryInfo("BD", "BGD", "Bangladesh", "Asia"),
    CountryInfo("BE", "BEL", "Belgium", "Europe"),
    CountryInfo("BG", "BGR", "Bulgaria", "Europe"),
    CountryInfo("BR", "BRA", "Brazil", "Americas"),
    CountryInfo("CA", "CAN", "Canada", "Americas"),
    CountryInfo("CH", "CHE", "Switzerland", "Europe"),
    CountryInfo("CL", "CHL", "Chile", "Americas"),
    CountryInfo("CN", "CHN", "China", "Asia"),
    CountryInfo("CO", "COL", "Colombia", "Americas"),
    CountryInfo("CZ", "CZE", "Czechia", "Europe"),
    CountryInfo("DE", "DEU", "Germany", "Europe"),
    CountryInfo("DK", "DNK", "Denmark", "Europe"),
    CountryInfo("EE", "EST", "Estonia", "Europe"),
    CountryInfo("EG", "EGY", "Egypt", "Africa"),
    CountryInfo("ES", "ESP", "Spain", "Europe"),
    CountryInfo("FI", "FIN", "Finland", "Europe"),
    CountryInfo("FR", "FRA", "France", "Europe"),
    CountryInfo("GB", "GBR", "United Kingdom", "Europe"),
    CountryInfo("GR", "GRC", "Greece", "Europe"),
    CountryInfo("HK", "HKG", "Hong Kong", "Asia"),
    CountryInfo("HU", "HUN", "Hungary", "Europe"),
    CountryInfo("ID", "IDN", "Indonesia", "Asia"),
    CountryInfo("IE", "IRL", "Ireland", "Europe"),
    CountryInfo("IL", "ISR", "Israel", "Asia"),
    CountryInfo("IN", "IND", "India", "Asia"),
    CountryInfo("IR", "IRN", "Iran", "Asia"),
    CountryInfo("IT", "ITA", "Italy", "Europe"),
    CountryInfo("JP", "JPN", "Japan", "Asia"),
    CountryInfo("KE", "KEN", "Kenya", "Africa"),
    CountryInfo("KR", "KOR", "South Korea", "Asia"),
    CountryInfo("LT", "LTU", "Lithuania", "Europe"),
    CountryInfo("LU", "LUX", "Luxembourg", "Europe"),
    CountryInfo("LV", "LVA", "Latvia", "Europe"),
    CountryInfo("MX", "MEX", "Mexico", "Americas"),
    CountryInfo("MY", "MYS", "Malaysia", "Asia"),
    CountryInfo("NG", "NGA", "Nigeria", "Africa"),
    CountryInfo("NL", "NLD", "Netherlands", "Europe"),
    CountryInfo("NO", "NOR", "Norway", "Europe"),
    CountryInfo("NZ", "NZL", "New Zealand", "Oceania"),
    CountryInfo("PH", "PHL", "Philippines", "Asia"),
    CountryInfo("PK", "PAK", "Pakistan", "Asia"),
    CountryInfo("PL", "POL", "Poland", "Europe"),
    CountryInfo("PT", "PRT", "Portugal", "Europe"),
    CountryInfo("RO", "ROU", "Romania", "Europe"),
    CountryInfo("RS", "SRB", "Serbia", "Europe"),
    CountryInfo("RU", "RUS", "Russia", "Europe"),
    CountryInfo("SA", "SAU", "Saudi Arabia", "Asia"),
    CountryInfo("SE", "SWE", "Sweden", "Europe"),
    CountryInfo("SG", "SGP", "Singapore", "Asia"),
    CountryInfo("TH", "THA", "Thailand", "Asia"),
    CountryInfo("TR", "TUR", "Turkey", "Asia"),
    CountryInfo("TW", "TWN", "Taiwan", "Asia"),
    CountryInfo("UA", "UKR", "Ukraine", "Europe"),
    CountryInfo("US", "USA", "United States", "Americas"),
    CountryInfo("VN", "VNM", "Vietnam", "Asia"),
    CountryInfo("ZA", "ZAF", "South Africa", "Africa"),
]

_BY_ALPHA2 = {country.alpha2: country for country in _COUNTRIES}
_BY_ALPHA3 = {country.alpha3: country for country in _COUNTRIES}


def canonical_country_code(code: str) -> str:
    """Canonical form of a country code: trimmed, upper case."""
    return code.strip().upper()


def is_valid_alpha2(code: str) -> bool:
    """Return True when ``code`` is a known two-letter country code."""
    return code.upper() in _BY_ALPHA2


def lookup(code: str) -> CountryInfo:
    """Return the registry entry for a two- or three-letter code."""
    key = canonical_country_code(code)
    if len(key) == 2 and key in _BY_ALPHA2:
        return _BY_ALPHA2[key]
    if len(key) == 3 and key in _BY_ALPHA3:
        return _BY_ALPHA3[key]
    raise UnknownCountryError(code)


def alpha2_to_alpha3(alpha2: str) -> str:
    """Translate a two-letter code to its three-letter code."""
    return lookup(alpha2).alpha3


def alpha3_to_alpha2(alpha3: str) -> str:
    """Translate a three-letter code to its two-letter code."""
    return lookup(alpha3).alpha2


def country_name(code: str) -> str:
    """Return the common name for a two- or three-letter code."""
    return lookup(code).name


def iter_countries() -> Iterator[CountryInfo]:
    """Yield all registry entries in alphabetical alpha-2 order."""
    return iter(_COUNTRIES)
