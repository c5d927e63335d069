//! Declared counter registries.
//!
//! Every statistic the analysis reports is a field of a *registry*: a
//! struct declared once with [`counters!`](crate::counters!) as a list of
//! documented field names. The macro generates the struct, its zero value,
//! field-wise `merge`, saturating `since` and a `for_each` visitor over
//! `(report key, value)` pairs that reports are rendered from. A new counter
//! is therefore one declaration line plus the line that bumps it; nothing
//! else copies, sums or prints fields by hand.
//!
//! ```
//! folic::counters! {
//!     /// Work done by a toy pass.
//!     pub struct PassStats {
//!         /// Items visited.
//!         visits,
//!         /// Items skipped, reported under another key.
//!         skips => "skipped",
//!         /// Kept out of reports (still merged and compared).
//!         retries => _,
//!     }
//! }
//!
//! let mut total = PassStats::ZERO;
//! let run = PassStats { visits: 3, skips: 1, retries: 2 };
//! total.merge(&run);
//! total.merge(&run);
//! assert_eq!(total.since(&run), run);
//! let mut keys = Vec::new();
//! total.for_each(|key, value| keys.push(format!("{key}={value}")));
//! assert_eq!(keys, ["visits=6", "skipped=2"]);
//! ```

use std::time::Duration;

/// A value a registry field can hold: a `u64` count, a [`Duration`], or a
/// nested registry (whose counters report flattened into the parent's).
pub trait Tally: Copy {
    /// The value before anything was counted.
    const ZERO: Self;
    /// Adds `other` into `self`.
    fn merge(&mut self, other: &Self);
    /// `self − earlier`, saturating at zero, for attributing the events
    /// between two readings.
    fn since(&self, earlier: &Self) -> Self;
    /// Reports the value to `f` under `key`. Durations report whole
    /// milliseconds; registries report each of their own counters instead.
    fn visit(&self, key: &'static str, f: &mut dyn FnMut(&'static str, u64));
    /// Overwrites every count with successive values drawn from `next`
    /// (durations take them as milliseconds). Used to build fixtures that
    /// cover every declared counter.
    fn fill(&mut self, next: &mut dyn FnMut() -> u64);
}

impl Tally for u64 {
    const ZERO: Self = 0;

    fn merge(&mut self, other: &Self) {
        *self += other;
    }

    fn since(&self, earlier: &Self) -> Self {
        self.saturating_sub(*earlier)
    }

    fn visit(&self, key: &'static str, f: &mut dyn FnMut(&'static str, u64)) {
        f(key, *self);
    }

    fn fill(&mut self, next: &mut dyn FnMut() -> u64) {
        *self = next();
    }
}

impl Tally for Duration {
    const ZERO: Self = Duration::ZERO;

    fn merge(&mut self, other: &Self) {
        *self += *other;
    }

    fn since(&self, earlier: &Self) -> Self {
        self.saturating_sub(*earlier)
    }

    fn visit(&self, key: &'static str, f: &mut dyn FnMut(&'static str, u64)) {
        f(key, self.as_millis() as u64);
    }

    fn fill(&mut self, next: &mut dyn FnMut() -> u64) {
        *self = Duration::from_millis(next());
    }
}

/// Declares a counter registry (see the [module docs](mod@crate::counters)).
///
/// Each entry is `/// doc` lines, a field name, an optional `: Type`
/// (default `u64`; also [`Duration`] or another registry) and an optional
/// report key: `=> "key"` renames the counter in reports, `=> _` keeps it
/// out of them. The struct derives `Debug`, `Clone`, `Copy`, `PartialEq`
/// and `Eq` and gets `ZERO`, `Default`, `merge`, `since`, `for_each` and a
/// [`Tally`] implementation.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[doc = $doc:literal])*
                $field:ident $(: $ty:ty)? $(=> $key:tt)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis struct $name {
            $(
                $(#[doc = $doc])*
                pub $field: $crate::counters!(@type $($ty)?),
            )*
        }

        impl $name {
            /// Every counter at zero.
            pub const ZERO: Self = $name {
                $($field: <$crate::counters!(@type $($ty)?) as $crate::counters::Tally>::ZERO,)*
            };

            /// Adds every counter of `other` into this one.
            pub fn merge(&mut self, other: &Self) {
                $($crate::counters::Tally::merge(&mut self.$field, &other.$field);)*
            }

            /// The counts accumulated since the reading `earlier`
            /// (field-wise, saturating at zero).
            pub fn since(&self, earlier: &Self) -> Self {
                $name {
                    $($field: $crate::counters::Tally::since(&self.$field, &earlier.$field),)*
                }
            }

            /// Calls `f` with the report key and value of every reported
            /// counter, in declaration order, nested registries flattened.
            pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
                $crate::counters::Tally::visit(self, "", &mut f);
            }
        }

        impl Default for $name {
            fn default() -> Self {
                $name::ZERO
            }
        }

        impl $crate::counters::Tally for $name {
            const ZERO: Self = $name::ZERO;

            fn merge(&mut self, other: &Self) {
                $name::merge(self, other);
            }

            fn since(&self, earlier: &Self) -> Self {
                $name::since(self, earlier)
            }

            fn visit(&self, _key: &'static str, f: &mut dyn FnMut(&'static str, u64)) {
                $($crate::counters!(@visit self.$field, $field, f $(, $key)?);)*
            }

            fn fill(&mut self, next: &mut dyn FnMut() -> u64) {
                $($crate::counters::Tally::fill(&mut self.$field, next);)*
            }
        }
    };
    (@type) => { u64 };
    (@type $ty:ty) => { $ty };
    (@visit $value:expr, $field:ident, $f:ident) => {
        $crate::counters::Tally::visit(&$value, stringify!($field), $f)
    };
    (@visit $value:expr, $field:ident, $f:ident, _) => {};
    (@visit $value:expr, $field:ident, $f:ident, $key:literal) => {
        $crate::counters::Tally::visit(&$value, $key, $f)
    };
}
