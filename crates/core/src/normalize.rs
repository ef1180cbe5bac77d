//! String pre-processing for linkage.
//!
//! The first step of every (PP)RL pipeline is normalising the quasi-identifier
//! strings so that superficial formatting differences ("O'Brien " vs
//! "obrien") do not defeat matching. The functions here implement the
//! standard normalisation pipeline used by data-matching systems:
//! lower-casing, accent folding for Latin-1 characters, punctuation removal,
//! and whitespace collapsing.

/// Configuration for [`normalize`].
#[derive(Debug, Clone)]
pub struct NormalizeConfig {
    /// Convert to lower case.
    pub lowercase: bool,
    /// Fold common accented Latin characters to their ASCII base letters.
    pub fold_accents: bool,
    /// Remove punctuation characters entirely.
    pub strip_punctuation: bool,
    /// Collapse runs of whitespace to a single space, and trim the ends.
    pub collapse_whitespace: bool,
    /// Remove all whitespace (useful for compact keys such as postcodes).
    pub remove_whitespace: bool,
}

impl Default for NormalizeConfig {
    fn default() -> Self {
        NormalizeConfig {
            lowercase: true,
            fold_accents: true,
            strip_punctuation: true,
            collapse_whitespace: true,
            remove_whitespace: false,
        }
    }
}

/// Folds one accented character to its ASCII base, or returns it unchanged.
fn fold_accent(c: char) -> char {
    match c {
        'à' | 'á' | 'â' | 'ã' | 'ä' | 'å' => 'a',
        'è' | 'é' | 'ê' | 'ë' => 'e',
        'ì' | 'í' | 'î' | 'ï' => 'i',
        'ò' | 'ó' | 'ô' | 'õ' | 'ö' | 'ø' => 'o',
        'ù' | 'ú' | 'û' | 'ü' => 'u',
        'ý' | 'ÿ' => 'y',
        'ç' => 'c',
        'ñ' => 'n',
        'À' | 'Á' | 'Â' | 'Ã' | 'Ä' | 'Å' => 'A',
        'È' | 'É' | 'Ê' | 'Ë' => 'E',
        'Ì' | 'Í' | 'Î' | 'Ï' => 'I',
        'Ò' | 'Ó' | 'Ô' | 'Õ' | 'Ö' | 'Ø' => 'O',
        'Ù' | 'Ú' | 'Û' | 'Ü' => 'U',
        'Ç' => 'C',
        'Ñ' => 'N',
        other => other,
    }
}

/// Normalises a string according to `config`.
pub fn normalize(input: &str, config: &NormalizeConfig) -> String {
    let mut out = String::new();
    normalize_into(input, config, &mut out);
    out
}

/// [`normalize`] into `out`, which is cleared first: one pass over
/// `input`, and no allocation once `out` has the capacity.
pub fn normalize_into(input: &str, config: &NormalizeConfig, out: &mut String) {
    out.clear();
    out.reserve(input.len());
    let whitespace = config.collapse_whitespace || config.remove_whitespace;
    // A collapsed run of whitespace is written only when a character
    // follows it, so the ends come out trimmed.
    let mut space = false;
    let mut push = |c: char| {
        if config.strip_punctuation && (c.is_ascii_punctuation() || c == '’' || c == '‘') {
            return;
        }
        if whitespace && c.is_whitespace() {
            space = !config.remove_whitespace && !out.is_empty();
            return;
        }
        if space {
            out.push(' ');
            space = false;
        }
        out.push(c);
    };
    for mut c in input.chars() {
        if config.fold_accents {
            c = fold_accent(c);
            if c == 'ß' {
                push('s');
                push('s');
                continue;
            }
        }
        if !config.lowercase {
            push(c);
        } else if c.is_ascii() {
            push(c.to_ascii_lowercase());
        } else {
            c.to_lowercase().for_each(&mut push);
        }
    }
}

/// Normalises with the default configuration.
pub fn normalize_default(input: &str) -> String {
    normalize(input, &NormalizeConfig::default())
}

/// Normalises a name-like field: default pipeline, whitespace removed.
pub fn normalize_compact(input: &str) -> String {
    normalize(
        input,
        &NormalizeConfig {
            remove_whitespace: true,
            ..NormalizeConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline() {
        assert_eq!(normalize_default("  O'Brien   SMITH "), "obrien smith");
    }

    #[test]
    fn accent_folding() {
        assert_eq!(normalize_default("Müller"), "muller");
        assert_eq!(normalize_default("José-María"), "josemaria");
        assert_eq!(normalize_default("Łukasz"), "łukasz"); // non-latin1 left alone
    }

    #[test]
    fn eszett_expands() {
        assert_eq!(normalize_default("Straße"), "strasse");
    }

    #[test]
    fn punctuation_stripping_optional() {
        let cfg = NormalizeConfig {
            strip_punctuation: false,
            ..NormalizeConfig::default()
        };
        assert_eq!(normalize("O'Brien", &cfg), "o'brien");
    }

    #[test]
    fn compact_removes_all_whitespace() {
        assert_eq!(normalize_compact("12 Main  St"), "12mainst");
    }

    #[test]
    fn no_lowercase() {
        let cfg = NormalizeConfig {
            lowercase: false,
            ..NormalizeConfig::default()
        };
        assert_eq!(normalize("ABC def", &cfg), "ABC def");
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert_eq!(normalize_default(""), "");
        assert_eq!(normalize_default("   "), "");
    }

    #[test]
    fn tabs_and_runs_collapse_or_vanish() {
        assert_eq!(normalize_default("\tAnn \t  LEE\n"), "ann lee");
        assert_eq!(normalize_compact(" \tAnn \t  Lee\n"), "annlee");
        let keep = NormalizeConfig {
            collapse_whitespace: false,
            ..NormalizeConfig::default()
        };
        assert_eq!(normalize(" A\tB ", &keep), " a\tb ");
    }

    #[test]
    fn into_reuses_and_overwrites_its_buffer() {
        let mut out = String::from("stale");
        normalize_into("Øre", &NormalizeConfig::default(), &mut out);
        assert_eq!(out, "ore");
        normalize_into("", &NormalizeConfig::default(), &mut out);
        assert_eq!(out, "");
    }

    #[test]
    fn unicode_quotes_removed() {
        assert_eq!(normalize_default("D’Angelo"), "dangelo");
    }
}
