//! Argument parsing shared by `taxorec-serve` and `taxorec-router`.

/// `--flag value` lookup over the raw argument list.
pub fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| format!("{name} requires a value")),
    }
}
