//! Seeded violation fixture for rule `temp-dir`.

use std::env::{self, temp_dir}; // line 3: flagged (grouped import)

fn direct() -> std::path::PathBuf {
    std::env::temp_dir().join("scratch") // line 6: flagged
}

fn fine() {
    let _home = env::var("HOME"); // other `env` items are fine
    let _name = "std::env::temp_dir"; // a string is not a call
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch() {
        let _p = super::env::temp_dir(); // line 18: flagged (tests are in scope)
    }
}
