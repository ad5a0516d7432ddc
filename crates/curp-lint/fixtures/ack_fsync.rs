//! Seeded violation fixture for rule `ack-before-fsync`. The self-test
//! presents this file under a durable-module name (`backup.rs`).

fn handle() -> Response {
    Response::BackupSynced { accepted: true } // line 5: flagged (fsync below)
}

fn marked_ok() -> Response {
    // lint: ack-after-fsync — append() fsynced before we got here
    Response::RecordAccepted
}

fn sync_everything(f: &std::fs::File) {
    f.sync_data().unwrap_or(());
}

fn ack_above_a_helper(log: &mut Log) -> Response {
    let ack = Response::BackupInstalled; // line 18: flagged (the helper below fsyncs)
    log.sync().unwrap_or(());
    ack
}

fn after_all_fsyncs() -> Response {
    Response::SyncDone // after the last fsync line: not flagged
}
