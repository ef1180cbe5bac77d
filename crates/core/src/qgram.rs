//! Q-gram (character n-gram) tokenisation.
//!
//! Bloom-filter PPRL encodes the *q-gram set* of a string (Figure 2, left, of
//! the paper): the set of all substrings of length `q`. Padding the string
//! with sentinel characters weights the first and last characters more
//! heavily, which empirically improves name matching. Positional q-grams
//! append the gram's index so transpositions of entire tokens are
//! distinguished.

use std::collections::BTreeMap;

/// Padding sentinel prepended/appended when `padded` is set.
pub const PAD_CHAR: char = '#';

/// Configuration for q-gram extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QGramConfig {
    /// Gram length (`q >= 1`). Bigrams (`q = 2`) are the PPRL default.
    pub q: usize,
    /// Pad with `q - 1` sentinels on each side.
    pub padded: bool,
    /// Append the gram position, making repeated grams distinct by position.
    pub positional: bool,
}

impl Default for QGramConfig {
    fn default() -> Self {
        QGramConfig {
            q: 2,
            padded: true,
            positional: false,
        }
    }
}

impl QGramConfig {
    /// Standard unpadded bigram configuration.
    pub fn bigrams() -> Self {
        QGramConfig {
            q: 2,
            padded: false,
            positional: false,
        }
    }
}

/// Buffers [`for_each_qgram`] reuses from call to call, so that
/// tokenising a column allocates once, not once per gram.
#[derive(Debug, Default)]
pub struct QGramScratch {
    /// The (padded) input.
    padded: String,
    /// Byte offset of every character of `padded`, then its length
    /// (unused for ASCII, whose offsets are the character indices).
    bounds: Vec<usize>,
    /// The current gram when a position suffix has to be appended.
    gram: String,
}

/// Calls `f` with every q-gram of `s` in order of occurrence, duplicates
/// kept.
///
/// Nothing for the empty string. A string shorter than `q` without
/// padding yields the string itself as a single gram, following the
/// convention used by data-matching toolkits (so very short names still
/// produce a token).
pub fn for_each_qgram(
    s: &str,
    config: &QGramConfig,
    scratch: &mut QGramScratch,
    mut f: impl FnMut(&str),
) {
    if s.is_empty() || config.q == 0 {
        return;
    }
    let QGramScratch {
        padded,
        bounds,
        gram,
    } = scratch;
    let pad = if config.padded { config.q - 1 } else { 0 };
    padded.clear();
    padded.reserve(s.len() + 2 * pad);
    padded.extend(std::iter::repeat_n(PAD_CHAR, pad));
    padded.push_str(s);
    padded.extend(std::iter::repeat_n(PAD_CHAR, pad));
    // An ASCII string's characters are its bytes: no boundary pass.
    let ascii = padded.is_ascii();
    let chars = if ascii {
        padded.len()
    } else {
        bounds.clear();
        bounds.extend(padded.char_indices().map(|(at, _)| at));
        bounds.push(padded.len());
        bounds.len() - 1
    };
    if chars < config.q {
        return f(padded);
    }
    let at = |i: usize| if ascii { i } else { bounds[i] };
    for pos in 0..=chars - config.q {
        let plain = &padded[at(pos)..at(pos + config.q)];
        if config.positional {
            use std::fmt::Write;
            gram.clear();
            write!(gram, "{plain}_{pos}").expect("writing to a String cannot fail");
            f(gram);
        } else {
            f(plain);
        }
    }
}

/// Extracts the q-gram multiset of `s` as a sorted `(gram, count)` map.
pub fn qgram_counts(s: &str, config: &QGramConfig) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for_each_qgram(s, config, &mut QGramScratch::default(), |gram| {
        *out.entry(gram.to_owned()).or_insert(0) += 1;
    });
    out
}

/// Extracts the q-gram *set* (duplicates collapsed) of `s`, sorted.
pub fn qgram_set(s: &str, config: &QGramConfig) -> Vec<String> {
    qgram_counts(s, config).into_keys().collect()
}

/// Extracts the q-gram list in order of occurrence (duplicates kept).
pub fn qgram_list(s: &str, config: &QGramConfig) -> Vec<String> {
    let mut out = Vec::new();
    for_each_qgram(s, config, &mut QGramScratch::default(), |gram| {
        out.push(gram.to_owned());
    });
    out
}

/// Dice coefficient between the q-gram sets of two strings.
///
/// `2·|A∩B| / (|A|+|B|)`, in `[0,1]`; `1.0` when both strings are empty.
pub fn qgram_dice(a: &str, b: &str, config: &QGramConfig) -> f64 {
    let sa = qgram_set(a, config);
    let sb = qgram_set(b, config);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let common = sorted_intersection_size(&sa, &sb);
    2.0 * common as f64 / (sa.len() + sb.len()) as f64
}

/// Jaccard coefficient between the q-gram sets of two strings.
pub fn qgram_jaccard(a: &str, b: &str, config: &QGramConfig) -> f64 {
    let sa = qgram_set(a, config);
    let sb = qgram_set(b, config);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let common = sorted_intersection_size(&sa, &sb);
    let union = sa.len() + sb.len() - common;
    if union == 0 {
        1.0
    } else {
        common as f64 / union as f64
    }
}

/// Intersection size of two sorted, deduplicated slices.
pub fn sorted_intersection_size<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unpadded() -> QGramConfig {
        QGramConfig::bigrams()
    }

    #[test]
    fn bigrams_of_peter() {
        let grams = qgram_list("peter", &unpadded());
        assert_eq!(grams, vec!["pe", "et", "te", "er"]);
    }

    #[test]
    fn padded_bigrams_include_sentinels() {
        let grams = qgram_list("ab", &QGramConfig::default());
        assert_eq!(grams, vec!["#a", "ab", "b#"]);
    }

    #[test]
    fn counts_keep_duplicates() {
        let counts = qgram_counts("aaa", &unpadded());
        assert_eq!(counts.get("aa"), Some(&2));
        let set = qgram_set("aaa", &unpadded());
        assert_eq!(set, vec!["aa"]);
    }

    #[test]
    fn positional_distinguishes_repeats() {
        let cfg = QGramConfig {
            positional: true,
            ..QGramConfig::bigrams()
        };
        let set = qgram_set("aaa", &cfg);
        assert_eq!(set, vec!["aa_0", "aa_1"]);
    }

    #[test]
    fn short_string_yields_itself() {
        assert_eq!(qgram_list("a", &unpadded()), vec!["a"]);
        let trigram = QGramConfig {
            q: 3,
            padded: false,
            positional: false,
        };
        assert_eq!(qgram_list("ab", &trigram), vec!["ab"]);
    }

    #[test]
    fn a_string_of_exactly_q_characters_is_one_window() {
        let positional = QGramConfig {
            positional: true,
            ..QGramConfig::bigrams()
        };
        assert_eq!(qgram_list("ab", &positional), vec!["ab_0"]);
        assert_eq!(qgram_list("éß", &positional), vec!["éß_0"]);
        assert_eq!(qgram_list("a", &positional), vec!["a"]);
    }

    #[test]
    fn non_ascii_grams_are_whole_characters() {
        assert_eq!(qgram_list("łøé", &unpadded()), vec!["łø", "øé"]);
        assert_eq!(
            qgram_list("aé", &QGramConfig::default()),
            vec!["#a", "aé", "é#"]
        );
    }

    #[test]
    fn empty_string_yields_nothing() {
        assert!(qgram_list("", &QGramConfig::default()).is_empty());
        assert!(qgram_set("", &QGramConfig::default()).is_empty());
    }

    #[test]
    fn dice_identical_is_one() {
        assert!((qgram_dice("smith", "smith", &QGramConfig::default()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dice_disjoint_is_zero() {
        assert_eq!(qgram_dice("abc", "xyz", &unpadded()), 0.0);
    }

    #[test]
    fn dice_known_value() {
        // smith vs smyth, unpadded bigrams: {sm,mi,it,th} vs {sm,my,yt,th};
        // common = 2, dice = 2*2/8 = 0.5
        let d = qgram_dice("smith", "smyth", &unpadded());
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_leq_dice() {
        for (a, b) in [("peter", "pedro"), ("smith", "smyth"), ("ann", "anne")] {
            let d = qgram_dice(a, b, &QGramConfig::default());
            let j = qgram_jaccard(a, b, &QGramConfig::default());
            assert!(j <= d + 1e-12, "jaccard {j} > dice {d}");
        }
    }

    #[test]
    fn both_empty_similarity_one() {
        assert_eq!(qgram_dice("", "", &QGramConfig::default()), 1.0);
        assert_eq!(qgram_jaccard("", "", &QGramConfig::default()), 1.0);
    }

    #[test]
    fn intersection_size() {
        assert_eq!(sorted_intersection_size(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(sorted_intersection_size::<i32>(&[], &[1]), 0);
    }
}
