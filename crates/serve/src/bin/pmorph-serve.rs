//! The `pmorph-serve` daemon.
//!
//! ```text
//! pmorph-serve [--addr HOST:PORT] [--workers N]
//! ```
//!
//! Without flags it binds an ephemeral port on `127.0.0.1` and runs the
//! `PMORPH_THREADS` worker count. The first stdout line is always
//! `pmorph-serve listening on <addr> (<n> workers)` — scripts (and the
//! e2e suite's subprocess test) parse the actual address from it, which
//! is what makes `--addr 127.0.0.1:0` (ephemeral port) usable.
//! The process exits after a `POST /shutdown` finishes draining.

use pmorph_serve::ServeConfig;

fn main() {
    let mut cfg = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => cfg.addr = addr,
                None => die("--addr needs a HOST:PORT value"),
            },
            "--workers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.workers = n,
                _ => die("--workers needs a positive integer"),
            },
            "--help" | "-h" => {
                println!("usage: pmorph-serve [--addr HOST:PORT] [--workers N]");
                println!("  --addr     bind address (default 127.0.0.1:0, an ephemeral port)");
                println!("  --workers  1 to 256 (default: PMORPH_THREADS or the core count)");
                return;
            }
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }

    let server = match pmorph_serve::serve(&cfg) {
        Ok(server) => server,
        Err(e) => die(&format!("cannot bind {}: {e}", cfg.addr)),
    };
    println!("pmorph-serve listening on {} ({} workers)", server.addr(), server.workers());
    server.join();
    println!("pmorph-serve drained and stopped");
}

fn die(msg: &str) -> ! {
    eprintln!("pmorph-serve: {msg}");
    std::process::exit(2);
}
