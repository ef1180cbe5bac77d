//! Blocking-key extraction.
//!
//! Standard blocking partitions records by a *blocking key value* (BKV)
//! derived from selected attributes (§3.4 "complexity reduction"). In PPRL
//! the BKV is computed on the masked/normalised value (here: normalised
//! text, phonetic codes, prefixes, or year of birth) and can be composed
//! from several parts.

use pprl_core::error::Result;
use pprl_core::normalize::normalize_compact;
use pprl_core::phonetic::{nysiis, soundex};
use pprl_core::record::{Dataset, Record};
use pprl_core::schema::Schema;
use pprl_core::value::Value;

/// One component of a blocking key.
#[derive(Debug, Clone)]
pub enum KeyPart {
    /// The normalised field value.
    Exact(String),
    /// The first `n` characters of the normalised field value.
    Prefix(String, usize),
    /// Soundex code of the field value.
    Soundex(String),
    /// NYSIIS code of the field value.
    Nysiis(String),
    /// Year component of a date field.
    Year(String),
}

impl KeyPart {
    fn field(&self) -> &str {
        match self {
            KeyPart::Exact(f)
            | KeyPart::Prefix(f, _)
            | KeyPart::Soundex(f)
            | KeyPart::Nysiis(f)
            | KeyPart::Year(f) => f,
        }
    }

    fn apply(&self, value: &Value) -> String {
        if value.is_missing() {
            return String::new();
        }
        match self {
            KeyPart::Exact(_) => normalize_compact(&value.as_text()),
            KeyPart::Prefix(_, n) => normalize_compact(&value.as_text())
                .chars()
                .take(*n)
                .collect(),
            KeyPart::Soundex(_) => soundex(&value.as_text()),
            KeyPart::Nysiis(_) => nysiis(&value.as_text()),
            KeyPart::Year(_) => match value {
                Value::Date(d) => d.year().to_string(),
                other => other.as_text().chars().take(4).collect(),
            },
        }
    }
}

/// A composite blocking key: the concatenation of its parts.
#[derive(Debug, Clone)]
pub struct BlockingKey {
    parts: Vec<KeyPart>,
}

impl BlockingKey {
    /// Creates a key from parts.
    pub fn new(parts: Vec<KeyPart>) -> Self {
        BlockingKey { parts }
    }

    /// The classic person key: Soundex(last name) + year of birth.
    pub fn person_default() -> Self {
        BlockingKey::new(vec![
            KeyPart::Soundex("last_name".into()),
            KeyPart::Year("dob".into()),
        ])
    }

    /// Extracts the key value of every record in `dataset`.
    ///
    /// Records whose every part is empty (all-missing) yield an empty key,
    /// which blockers treat as "blocks with nothing".
    pub fn extract(&self, dataset: &Dataset) -> Result<Vec<String>> {
        self.extract_rows(dataset.schema(), dataset.records())
    }

    /// [`BlockingKey::extract`] over `records` laid out by `schema`.
    pub fn extract_rows(&self, schema: &Schema, records: &[Record]) -> Result<Vec<String>> {
        let indices: Vec<usize> = self
            .parts
            .iter()
            .map(|p| schema.index_of(p.field()))
            .collect::<Result<_>>()?;
        Ok(records
            .iter()
            .map(|r| {
                let mut key = String::new();
                for (part, &idx) in self.parts.iter().zip(&indices) {
                    key.push_str(&part.apply(&r.values[idx]));
                    key.push('|');
                }
                key
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_core::record::Record;
    use pprl_core::schema::Schema;
    use pprl_core::value::Date;

    fn person(first: &str, last: &str, year: i32) -> Record {
        Record::new(
            0,
            vec![
                Value::Text(first.into()),
                Value::Text(last.into()),
                Value::Text("1 x st".into()),
                Value::Text("city".into()),
                Value::Text("1000".into()),
                Value::Date(Date::new(year, 6, 5).unwrap()),
                Value::Categorical("f".into()),
                Value::Integer(30),
            ],
        )
    }

    fn ds(records: Vec<Record>) -> Dataset {
        Dataset::from_records(Schema::person(), records).unwrap()
    }

    #[test]
    fn default_key_groups_phonetic_variants() {
        let d = ds(vec![
            person("anna", "smith", 1987),
            person("ann", "smyth", 1987),
            person("bob", "jones", 1987),
            person("carol", "smith", 1990),
        ]);
        let keys = BlockingKey::person_default().extract(&d).unwrap();
        assert_eq!(keys[0], keys[1], "smith/smyth same year should share key");
        assert_ne!(keys[0], keys[2], "different surname");
        assert_ne!(keys[0], keys[3], "different year");
    }

    #[test]
    fn prefix_and_exact_parts() {
        let d = ds(vec![person("anna", "Smith", 1987)]);
        let k = BlockingKey::new(vec![
            KeyPart::Prefix("last_name".into(), 3),
            KeyPart::Exact("gender".into()),
        ])
        .extract(&d)
        .unwrap();
        assert_eq!(k[0], "smi|f|");
    }

    #[test]
    fn nysiis_part() {
        let d = ds(vec![
            person("anna", "Schmidt", 1987),
            person("x", "Schmitt", 1987),
        ]);
        let k = BlockingKey::new(vec![KeyPart::Nysiis("last_name".into())])
            .extract(&d)
            .unwrap();
        assert!(!k[0].is_empty());
    }

    #[test]
    fn missing_values_yield_empty_parts() {
        let mut r = person("anna", "smith", 1987);
        r.values[1] = Value::Missing;
        r.values[5] = Value::Missing;
        let d = ds(vec![r]);
        let k = BlockingKey::person_default().extract(&d).unwrap();
        assert_eq!(k[0], "||");
    }

    #[test]
    fn unknown_field_is_error() {
        let d = ds(vec![person("a", "b", 1987)]);
        assert!(BlockingKey::new(vec![KeyPart::Exact("zzz".into())])
            .extract(&d)
            .is_err());
    }
}
