//! Minimal argument parsing shared by the experiment binaries (no external
//! CLI crate needed for `--flag value` pairs).
//!
//! A flag that is given must carry a usable value: a trailing `--imax` or an
//! unparseable `--imax 1e3` exits with status 2 and names the flag, instead
//! of silently running the default budget.

use crate::checkpoint::{Checkpoint, Record};
use std::fmt;
use std::path::Path;

/// A `--flag value` pair that cannot be used. `flag` is the flag as
/// written (`--imax`); `expected` is the type the value must parse as.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ArgError {
    /// The flag is the last argument, with no value after it.
    MissingValue { flag: String },
    /// The value does not parse as the flag's type.
    BadValue {
        flag: String,
        value: String,
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue { flag } => write!(f, "{flag} needs a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} {value:?} is not a valid {expected}"),
        }
    }
}

/// The raw value following `--name`: `Ok(None)` when the flag is absent,
/// an error when it is the last argument.
fn try_arg_str<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, ArgError> {
    let flag = format!("--{name}");
    match args.iter().position(|a| *a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(value) => Ok(Some(value)),
            None => Err(ArgError::MissingValue { flag }),
        },
    }
}

/// The value following `--name`, parsed, or `default` when the flag is
/// absent; an error when the flag has no value or the value does not parse.
fn try_arg_or<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, ArgError> {
    match try_arg_str(args, name)? {
        None => Ok(default),
        Some(value) => value.parse().map_err(|_| ArgError::BadValue {
            flag: format!("--{name}"),
            value: value.to_string(),
            expected: std::any::type_name::<T>(),
        }),
    }
}

/// Exits with status 2 and a message naming the flag on a bad argument.
fn or_exit<T>(r: Result<T, ArgError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("fatal: {e}");
        std::process::exit(2);
    })
}

/// Returns the value following `--name`, parsed, or `default` when the flag
/// is absent. A trailing `--name` or an unparseable value exits with
/// status 2.
pub fn arg_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    or_exit(try_arg_or(args, name, default))
}

/// Returns the raw string following `--name`, if present. A trailing
/// `--name` exits with status 2.
pub fn arg_str(args: &[String], name: &str) -> Option<String> {
    or_exit(try_arg_str(args, name)).map(str::to_string)
}

/// Parses `--shard i/N` into a [`ShardSpec`](saga_pisa::ShardSpec)
/// (defaulting to the full grid when absent), exiting with a usage message
/// on a malformed spec — a bad shard silently treated as full would run N×
/// the intended work and collide with its siblings' checkpoints.
pub fn shard_arg(args: &[String]) -> saga_pisa::ShardSpec {
    match arg_str(args, "shard") {
        None => saga_pisa::ShardSpec::FULL,
        Some(spec) => saga_pisa::ShardSpec::parse(&spec).unwrap_or_else(|e| {
            eprintln!("fatal: {e} (expected --shard i/N, e.g. --shard 0/4)");
            std::process::exit(2);
        }),
    }
}

/// The checkpoint path for this run: `--checkpoint PATH` verbatim if given,
/// otherwise `base` with the shard's `.shard{i}of{N}` suffix (no suffix for
/// a full run — 1-host runs keep their historical filenames).
pub fn checkpoint_path(
    args: &[String],
    shard: saga_pisa::ShardSpec,
    base: &str,
) -> std::path::PathBuf {
    match arg_str(args, "checkpoint") {
        Some(p) => std::path::PathBuf::from(p),
        None => shard.checkpoint_path(Path::new(base)),
    }
}

/// Opens the run's checkpoint at `path` (replaying it with `resume`) and
/// announces how many units a resume replays. A checkpoint that cannot be
/// opened exits with status 1 naming the path.
pub fn open_checkpoint<R: Record>(path: &Path, resume: bool) -> Checkpoint<R> {
    let checkpoint = Checkpoint::open(path, resume).unwrap_or_else(|e| {
        eprintln!("fatal: cannot open checkpoint {}: {e}", path.display());
        std::process::exit(1);
    });
    if checkpoint.loaded() > 0 {
        eprintln!(
            "resuming: {} {} already in {}",
            checkpoint.loaded(),
            R::UNITS,
            path.display()
        );
    }
    checkpoint
}

/// Unwraps a checkpointed grid run. A checkpoint write failure exits with
/// status 1, noting that everything recorded before it is already flushed,
/// so a `--resume` continues from there.
pub fn exit_on_write_failure<T>(result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!(
            "fatal: checkpoint write failed: {e} — everything recorded before the failure \
             is flushed; re-run with --resume after freeing space"
        );
        std::process::exit(1);
    })
}

/// Returns the first positional (non-flag) argument, if any.
pub fn positional(args: &[String]) -> Option<&str> {
    let mut skip = false;
    for a in args.iter().skip(1) {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        return Some(a);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flag_values() {
        let args = v(&["prog", "--instances", "42", "--imax", "100"]);
        assert_eq!(arg_or(&args, "instances", 0usize), 42);
        assert_eq!(arg_or(&args, "imax", 0usize), 100);
        assert_eq!(arg_or(&args, "missing", 7u64), 7);
    }

    #[test]
    fn finds_positional_between_flags() {
        let args = v(&["prog", "--imax", "100", "blast", "--seed", "1"]);
        assert_eq!(positional(&args), Some("blast"));
        assert_eq!(positional(&v(&["prog", "--imax", "9"])), None);
    }

    #[test]
    fn unparseable_value_is_a_named_error() {
        for (flag, value) in [("imax", "1e3"), ("restarts", "-1"), ("instances", "many")] {
            let args = v(&["prog", &format!("--{flag}"), value]);
            let err = try_arg_or(&args, flag, 5usize).unwrap_err();
            assert_eq!(
                err,
                ArgError::BadValue {
                    flag: format!("--{flag}"),
                    value: value.to_string(),
                    expected: "usize",
                }
            );
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("--{flag}")) && msg.contains(value),
                "{msg}"
            );
        }
        // a flag swallowed as another flag's value is caught the same way
        let args = v(&["prog", "--imax", "--restarts", "2"]);
        assert!(matches!(
            try_arg_or(&args, "imax", 0usize),
            Err(ArgError::BadValue { .. })
        ));
        assert_eq!(try_arg_or(&args, "restarts", 0usize), Ok(2));
    }

    #[test]
    fn trailing_flag_without_value_is_a_named_error() {
        let args = v(&["prog", "--instances", "4", "--imax"]);
        let err = try_arg_or(&args, "imax", 1000usize).unwrap_err();
        assert_eq!(
            err,
            ArgError::MissingValue {
                flag: "--imax".to_string()
            }
        );
        assert!(err.to_string().contains("--imax"));
        assert_eq!(try_arg_or(&args, "instances", 0usize), Ok(4));
        assert_eq!(
            try_arg_str(&v(&["prog", "--shard"]), "shard"),
            Err(ArgError::MissingValue {
                flag: "--shard".to_string()
            })
        );
        assert_eq!(try_arg_str(&v(&["prog"]), "shard"), Ok(None));
    }

    #[test]
    fn shard_defaults_to_full_and_parses_specs() {
        assert!(shard_arg(&v(&["prog"])).is_full());
        let s = shard_arg(&v(&["prog", "--shard", "1/4"]));
        assert_eq!((s.index, s.count), (1, 4));
    }

    #[test]
    fn checkpoint_path_prefers_explicit_flag() {
        let shard = saga_pisa::ShardSpec { index: 1, count: 2 };
        assert_eq!(
            checkpoint_path(&v(&["prog"]), shard, "results/x_cells.jsonl"),
            std::path::Path::new("results/x_cells.shard1of2.jsonl")
        );
        assert_eq!(
            checkpoint_path(
                &v(&["prog", "--checkpoint", "/tmp/mine.jsonl"]),
                shard,
                "results/x_cells.jsonl"
            ),
            std::path::Path::new("/tmp/mine.jsonl")
        );
    }
}
