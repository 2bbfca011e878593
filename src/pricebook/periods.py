"""Billing periods and the calendar arithmetic used for window resets.

Two distinct notions of period length live here and must not be mixed up:

* ``canonical_days`` is a fixed comparison convention (DAY=1, WEEK=7,
  MONTH=30, YEAR=365) used only to decide whether one period outlasts
  another. It is never used to compute dates.
* ``advance`` is real calendar arithmetic: months and years move by
  calendar months with day-of-month clamping (Jan-31 plus one month is
  Feb-28, or Feb-29 in a leap year), while days and weeks move by exact
  multiples of 86400 seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import MAXYEAR, datetime, timedelta
from enum import Enum

from .errors import ModelError

__all__ = ["PeriodUnit", "Period", "advance", "latest_window_index"]


class PeriodUnit(Enum):
    DAY = "DAY"
    WEEK = "WEEK"
    MONTH = "MONTH"
    YEAR = "YEAR"


_CANONICAL_DAYS = {
    PeriodUnit.DAY: 1,
    PeriodUnit.WEEK: 7,
    PeriodUnit.MONTH: 30,
    PeriodUnit.YEAR: 365,
}


# December 9999, the last month a datetime can name, as year * 12 + month - 1.
_LAST_MONTH = MAXYEAR * 12 + 11


@dataclass(frozen=True)
class Period:
    """A positive count of days, weeks, months, or years."""

    value: int
    unit: PeriodUnit

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or isinstance(self.value, bool) or self.value < 1:
            raise ModelError(f"period value must be a positive integer, got {self.value!r}")
        if not isinstance(self.unit, PeriodUnit):
            raise ModelError(f"period unit must be a PeriodUnit, got {self.unit!r}")

    @property
    def canonical_days(self) -> int:
        """Day count for ordering periods; a convention, not calendar math."""
        return self.value * _CANONICAL_DAYS[self.unit]


def _span_seconds(period: Period) -> int:
    """Length in seconds of a period of days or weeks; 0 for months and years.

    Identity tests, not a dict keyed by unit: hashing an ``Enum`` member
    runs Python-level code, and the metering path asks this on every window.
    """
    if period.unit is PeriodUnit.DAY:
        return 86400 * period.value
    if period.unit is PeriodUnit.WEEK:
        return 7 * 86400 * period.value
    return 0


# Days in each month of a common year, by month number (index 0 unused).
_MONTH_DAYS = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _days_in_month(year: int, month: int) -> int:
    """``calendar.monthrange(year, month)[1]``, without working out a weekday
    or importing ``calendar`` (and ``locale`` with it) at start-up."""
    if month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
        return 29
    return _MONTH_DAYS[month]


def _add_months(anchor: datetime, months: int) -> datetime:
    year, month_index = divmod(anchor.year * 12 + (anchor.month - 1) + months, 12)
    day = anchor.day
    if day > 28:  # every month has 28 days; only later anchors may clamp
        day = min(day, _days_in_month(year, month_index + 1))
    return anchor.replace(year=year, month=month_index + 1, day=day)


def advance(start: datetime, period: Period, count: int) -> datetime:
    """Instant ``count`` periods after ``start``.

    Month and year steps are always taken from the anchor, so the
    day-of-month snaps back after short months: Jan-31 anchored monthly
    windows start Jan-31, Feb-28, Mar-31, ...
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    span = _span_seconds(period)
    if span:
        return start + timedelta(seconds=span * count)
    months_per = period.value * (12 if period.unit is PeriodUnit.YEAR else 1)
    return _add_months(start, months_per * count)


def latest_window_index(start: datetime, period: Period, now: datetime) -> int:
    """Largest k with ``advance(start, period, k) <= now``; requires now >= start.

    A window that would start past the last instant a datetime can name
    never starts, so stepping stops short of it.
    """
    if now < start:
        raise ValueError("now precedes start")
    span = _span_seconds(period)
    if span:
        return int((now - start).total_seconds() // span)
    months_per = period.value * (12 if period.unit is PeriodUnit.YEAR else 1)
    elapsed_months = (now.year - start.year) * 12 + (now.month - start.month)
    k = max(elapsed_months // months_per, 0)
    first_month = start.year * 12 + start.month - 1
    while (first_month + months_per * (k + 1) <= _LAST_MONTH
           and advance(start, period, k + 1) <= now):
        k += 1
    while k > 0 and advance(start, period, k) > now:
        k -= 1
    return k


def window_started(start: datetime, period: Period, index: int, now: datetime) -> bool:
    """Whether window ``index + 1`` has started by ``now``.

    For ``now`` at or after ``start`` it equals
    ``latest_window_index(start, period, now) > index``, but it needs no
    calendar arithmetic except in the month in which that window starts.
    Days and weeks compare elapsed whole seconds; months and years compare
    month numbers, as long as both instants carry the same ``tzinfo`` and
    so read the same wall clock.
    """
    span = _span_seconds(period)
    if span:
        elapsed = now - start
        return elapsed.days * 86400 + elapsed.seconds >= span * (index + 1)
    months_per = period.value * (12 if period.unit is PeriodUnit.YEAR else 1)
    month = start.year * 12 + start.month - 1 + months_per * (index + 1)
    if month > _LAST_MONTH:
        return False  # a window past the calendar never starts
    if now.tzinfo is start.tzinfo:
        now_month = now.year * 12 + now.month - 1
        if now_month != month:
            return now_month > month
    return advance(start, period, index + 1) <= now
