//! Typed field values for quasi-identifiers.
//!
//! The paper's linkage-schema dimension (§3.1) lists the QID types used in
//! practice: strings (name, address), numerics (age), categoricals (gender)
//! and dates (date of birth). [`Value`] is the dynamically-typed cell, and
//! [`Date`] a dependency-free calendar date with day-arithmetic (needed by
//! numeric/date comparators and neighbourhood encodings).

use crate::error::{PprlError, Result};
use std::fmt;

/// A calendar date in the proleptic Gregorian calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

const DAYS_IN_MONTH: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

impl Date {
    /// Constructs a date, validating month/day ranges and leap years.
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self> {
        if !(1..=12).contains(&month) {
            return Err(PprlError::ValueError(format!("month {month} out of range")));
        }
        let max_day = Self::days_in_month(year, month);
        if day == 0 || day > max_day {
            return Err(PprlError::ValueError(format!(
                "day {day} out of range for {year}-{month:02}"
            )));
        }
        Ok(Date { year, month, day })
    }

    /// Parses `YYYY-MM-DD` or `YYYYMMDD`.
    pub fn parse(s: &str) -> Result<Self> {
        let digits: String = s.chars().filter(|c| c.is_ascii_digit()).collect();
        if digits.len() != 8 || s.chars().any(|c| !c.is_ascii_digit() && c != '-') {
            return Err(PprlError::ValueError(format!("cannot parse date `{s}`")));
        }
        let year: i32 = digits[0..4]
            .parse()
            .map_err(|_| PprlError::ValueError(format!("bad year in `{s}`")))?;
        let month: u8 = digits[4..6]
            .parse()
            .map_err(|_| PprlError::ValueError(format!("bad month in `{s}`")))?;
        let day: u8 = digits[6..8]
            .parse()
            .map_err(|_| PprlError::ValueError(format!("bad day in `{s}`")))?;
        Date::new(year, month, day)
    }

    /// Year component.
    pub fn year(&self) -> i32 {
        self.year
    }
    /// Month component (1–12).
    pub fn month(&self) -> u8 {
        self.month
    }
    /// Day component (1–31).
    pub fn day(&self) -> u8 {
        self.day
    }

    /// True for Gregorian leap years.
    pub fn is_leap_year(year: i32) -> bool {
        (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
    }

    /// Number of days in the given month of the given year.
    pub fn days_in_month(year: i32, month: u8) -> u8 {
        if month == 2 && Self::is_leap_year(year) {
            29
        } else {
            DAYS_IN_MONTH[(month - 1) as usize]
        }
    }

    /// Days since 1970-01-01 (negative before the epoch).
    ///
    /// Uses the standard civil-from-days algorithm (Howard Hinnant).
    pub fn to_epoch_days(&self) -> i64 {
        let y = if self.month <= 2 {
            self.year - 1
        } else {
            self.year
        } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146097 + doe - 719468
    }

    /// Inverse of [`Date::to_epoch_days`].
    pub fn from_epoch_days(days: i64) -> Self {
        let z = days + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
        let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u8;
        let year = (y + if m <= 2 { 1 } else { 0 }) as i32;
        Date {
            year,
            month: m,
            day: d,
        }
    }

    /// Absolute difference in days between two dates.
    pub fn days_between(&self, other: &Date) -> i64 {
        (self.to_epoch_days() - other.to_epoch_days()).abs()
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A dynamically-typed QID cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Free-text value (name, address, …).
    Text(String),
    /// Integer value (age, house number, …).
    Integer(i64),
    /// Floating-point value (weight, income, …).
    Float(f64),
    /// Calendar date (date of birth, admission date, …).
    Date(Date),
    /// Categorical code (gender, blood type, …).
    Categorical(String),
    /// Missing / null.
    Missing,
}

impl Value {
    /// True when the value is [`Value::Missing`].
    pub fn is_missing(&self) -> bool {
        matches!(self, Value::Missing)
    }

    /// Canonical string rendering used by encoders and blockers.
    ///
    /// Missing values render to the empty string so encoders produce empty
    /// token sets rather than failing.
    pub fn as_text(&self) -> String {
        match self {
            Value::Text(s) | Value::Categorical(s) => s.clone(),
            other => {
                let mut buf = String::new();
                other.text(&mut buf);
                buf
            }
        }
    }

    /// [`Value::as_text`] without the copy: text and categorical values
    /// are borrowed, the others rendered into `buf` (cleared first).
    pub fn text<'a>(&'a self, buf: &'a mut String) -> &'a str {
        use std::fmt::Write;
        buf.clear();
        let rendered = match self {
            Value::Text(s) | Value::Categorical(s) => return s,
            Value::Integer(i) => write!(buf, "{i}"),
            Value::Float(x) => write!(buf, "{x}"),
            Value::Date(d) => write!(buf, "{d}"),
            Value::Missing => Ok(()),
        };
        rendered.expect("writing to a String cannot fail");
        buf
    }

    /// Numeric view: integers, floats, and dates (as epoch days) convert;
    /// other variants return an error.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Integer(i) => Ok(*i as f64),
            Value::Float(x) => Ok(*x),
            Value::Date(d) => Ok(d.to_epoch_days() as f64),
            other => Err(PprlError::ValueError(format!(
                "value {other:?} is not numeric"
            ))),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Integer(i)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<Date> for Value {
    fn from(d: Date) -> Self {
        Value::Date(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_validation() {
        assert!(Date::new(2020, 2, 29).is_ok());
        assert!(Date::new(2021, 2, 29).is_err());
        assert!(Date::new(1900, 2, 29).is_err()); // 1900 not a leap year
        assert!(Date::new(2000, 2, 29).is_ok()); // 2000 is
        assert!(Date::new(2020, 13, 1).is_err());
        assert!(Date::new(2020, 0, 1).is_err());
        assert!(Date::new(2020, 4, 31).is_err());
        assert!(Date::new(2020, 4, 0).is_err());
    }

    #[test]
    fn date_parse_formats() {
        assert_eq!(
            Date::parse("1987-06-05").unwrap(),
            Date::new(1987, 6, 5).unwrap()
        );
        assert_eq!(
            Date::parse("19870605").unwrap(),
            Date::new(1987, 6, 5).unwrap()
        );
        assert!(Date::parse("1987/06/05").is_err());
        assert!(Date::parse("87-06-05").is_err());
        assert!(Date::parse("").is_err());
    }

    #[test]
    fn epoch_day_round_trip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (1969, 12, 31),
            (2000, 2, 29),
            (1900, 3, 1),
            (2026, 7, 5),
            (1850, 11, 17),
        ] {
            let date = Date::new(y, m, d).unwrap();
            assert_eq!(Date::from_epoch_days(date.to_epoch_days()), date);
        }
        assert_eq!(Date::new(1970, 1, 1).unwrap().to_epoch_days(), 0);
        assert_eq!(Date::new(1970, 1, 2).unwrap().to_epoch_days(), 1);
    }

    #[test]
    fn days_between_symmetric() {
        let a = Date::new(2020, 1, 1).unwrap();
        let b = Date::new(2020, 3, 1).unwrap();
        assert_eq!(a.days_between(&b), 60); // leap year: 31 + 29
        assert_eq!(b.days_between(&a), 60);
    }

    #[test]
    fn date_display() {
        assert_eq!(Date::new(1987, 6, 5).unwrap().to_string(), "1987-06-05");
    }

    #[test]
    fn date_ordering() {
        assert!(Date::new(1987, 6, 5).unwrap() < Date::new(1987, 6, 6).unwrap());
        assert!(Date::new(1987, 6, 5).unwrap() < Date::new(1988, 1, 1).unwrap());
    }

    #[test]
    fn value_as_text() {
        assert_eq!(Value::from("Anna").as_text(), "Anna");
        assert_eq!(Value::from(42i64).as_text(), "42");
        assert_eq!(Value::Missing.as_text(), "");
        assert_eq!(
            Value::Date(Date::new(1987, 6, 5).unwrap()).as_text(),
            "1987-06-05"
        );
        assert_eq!(Value::Categorical("f".into()).as_text(), "f");
    }

    #[test]
    fn value_as_f64() {
        assert_eq!(Value::from(42i64).as_f64().unwrap(), 42.0);
        assert_eq!(Value::from(1.5f64).as_f64().unwrap(), 1.5);
        assert_eq!(
            Value::Date(Date::new(1970, 1, 2).unwrap())
                .as_f64()
                .unwrap(),
            1.0
        );
        assert!(Value::from("x").as_f64().is_err());
        assert!(Value::Missing.as_f64().is_err());
    }

    #[test]
    fn missing_detection() {
        assert!(Value::Missing.is_missing());
        assert!(!Value::from("").is_missing());
    }
}
