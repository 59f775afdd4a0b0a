//! Child processes of a workload: spawned directly by the benchmark, watched
//! through their output lines and `/proc`, and always reaped.

use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One line a child printed, stamped when the benchmark read it.
pub struct Line {
    /// When the line arrived.
    pub at: Instant,
    /// The line, without its newline.
    pub text: String,
}

/// A running child process. Dropping it kills and reaps the child.
pub struct Proc {
    name: String,
    child: Child,
    lines: Receiver<Line>,
    readers: Vec<JoinHandle<()>>,
    /// The last lines seen, for error reports.
    tail: Vec<String>,
    status: Option<ExitStatus>,
}

/// Drains `pipe` line by line into `tx` until the child closes it.
fn reader(
    pipe: impl std::io::Read + Send + 'static,
    tx: std::sync::mpsc::Sender<Line>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut pipe = std::io::BufReader::new(pipe);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            match pipe.read_until(b'\n', &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let text = String::from_utf8_lossy(&buf).trim_end().to_string();
                    // The receiver may be gone; keep draining so the child
                    // never blocks on a full pipe.
                    let _ = tx.send(Line {
                        at: Instant::now(),
                        text,
                    });
                }
            }
        }
    })
}

impl Proc {
    /// Spawns `program args...` with its log level pinned to `info`,
    /// reading stderr, and stdout too when `stdout` is set (otherwise it is
    /// discarded).
    pub fn spawn(program: &Path, args: &[String], stdout: bool) -> Result<Proc, String> {
        let name = program
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut child = Command::new(program)
            .args(args)
            .env("IMUFIT_LOG", "info")
            .stdin(Stdio::null())
            .stdout(if stdout {
                Stdio::piped()
            } else {
                Stdio::null()
            })
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
        let (tx, lines) = channel();
        let mut readers = Vec::new();
        if let Some(out) = child.stdout.take() {
            readers.push(reader(out, tx.clone()));
        }
        if let Some(err) = child.stderr.take() {
            readers.push(reader(err, tx));
        }
        Ok(Proc {
            name,
            child,
            lines,
            readers,
            tail: Vec::new(),
            status: None,
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn keep(&mut self, line: Line) {
        if self.tail.len() == 20 {
            self.tail.remove(0);
        }
        self.tail.push(line.text);
    }

    /// Waits until, for each of `needles`, a line containing it arrived
    /// (stdout and stderr interleave in any order), up to `deadline`.
    /// Returns the lines in `needles` order.
    pub fn wait_lines(&mut self, needles: &[&str], deadline: Instant) -> Result<Vec<Line>, String> {
        let mut found: Vec<Option<Line>> = needles.iter().map(|_| None).collect();
        while found.iter().any(Option::is_none) {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = match self.lines.recv_timeout(left) {
                Ok(line) => line,
                Err(e) => {
                    let missing: Vec<&str> = needles
                        .iter()
                        .zip(&found)
                        .filter(|(_, f)| f.is_none())
                        .map(|(n, _)| *n)
                        .collect();
                    let why = match e {
                        RecvTimeoutError::Timeout => "did not print in time",
                        RecvTimeoutError::Disconnected => "exited before printing",
                    };
                    return Err(format!(
                        "{} {why} {missing:?}:\n{}",
                        self.name,
                        self.tail.join("\n")
                    ));
                }
            };
            match needles
                .iter()
                .zip(&found)
                .position(|(n, f)| f.is_none() && line.text.contains(n))
            {
                Some(i) => found[i] = Some(line),
                None => self.keep(line),
            }
        }
        Ok(found.into_iter().flatten().collect())
    }

    /// Waits for a line containing `needle`; see [`Proc::wait_lines`].
    pub fn wait_line(&mut self, needle: &str, deadline: Instant) -> Result<Line, String> {
        Ok(self.wait_lines(&[needle], deadline)?.remove(0))
    }

    /// The exit status once the child has exited, without blocking.
    pub fn poll_exit(&mut self) -> Result<Option<ExitStatus>, String> {
        if self.status.is_none() {
            self.status = self
                .child
                .try_wait()
                .map_err(|e| format!("{}: {e}", self.name))?;
        }
        Ok(self.status)
    }

    /// Fails with the child's last output lines unless it exited with 0.
    /// Call after the child has exited.
    pub fn expect_success(&mut self) -> Result<(), String> {
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        while let Ok(line) = self.lines.try_recv() {
            self.keep(line);
        }
        match self.status {
            Some(s) if s.success() => Ok(()),
            other => Err(format!(
                "{} ended with {other:?}:\n{}",
                self.name,
                self.tail.join("\n")
            )),
        }
    }

    /// Kills the child if it still runs, and reaps it and its readers.
    pub fn stop(&mut self) {
        if self.status.is_none() {
            let _ = self.child.kill();
            self.status = self.child.wait().ok();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The peak resident set (`VmHWM`) of a live process, in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak-RSS tracking over a set of processes, sampled as they run.
#[derive(Debug, Default)]
pub struct RssWatch {
    /// Largest `VmHWM` seen per process, in the order sampled, KiB.
    peak_kib: Vec<u64>,
    last: Option<Instant>,
}

impl RssWatch {
    /// Samples every process in `procs`, at most every 20 ms.
    pub fn sample(&mut self, procs: &[&Proc]) {
        if self
            .last
            .is_some_and(|t| t.elapsed() < Duration::from_millis(20))
        {
            return;
        }
        self.last = Some(Instant::now());
        self.peak_kib
            .resize(self.peak_kib.len().max(procs.len()), 0);
        for (peak, p) in self.peak_kib.iter_mut().zip(procs) {
            if p.status.is_none() {
                if let Some(kib) = peak_rss_kib(p.pid()) {
                    *peak = (*peak).max(kib);
                }
            }
        }
    }

    /// The peak of the first process sampled (the workload's main process), MB.
    pub fn main_mb(&self) -> f64 {
        self.peak_kib.first().copied().unwrap_or(0) as f64 / 1024.0
    }

    /// The largest peak of the other processes (the workers), MB.
    pub fn workers_mb(&self) -> f64 {
        self.peak_kib.iter().skip(1).max().copied().unwrap_or(0) as f64 / 1024.0
    }
}

/// Waits until every process in `procs` has exited, sampling peak RSS as
/// they run, and returns when each one exited. Kills all at `deadline`.
pub fn wait_all(
    procs: &mut [&mut Proc],
    rss: &mut RssWatch,
    deadline: Instant,
) -> Result<Vec<Instant>, String> {
    let mut exits: Vec<Option<Instant>> = vec![None; procs.len()];
    loop {
        let now = Instant::now();
        for (p, exit) in procs.iter_mut().zip(exits.iter_mut()) {
            if exit.is_none() && p.poll_exit()?.is_some() {
                *exit = Some(now);
            }
        }
        if exits.iter().all(Option::is_some) {
            return Ok(exits.into_iter().flatten().collect());
        }
        if now > deadline {
            for p in procs.iter_mut() {
                p.stop();
            }
            return Err("workload processes did not finish in time".to_string());
        }
        rss.sample(&procs.iter().map(|p| &**p).collect::<Vec<_>>());
        std::thread::sleep(Duration::from_millis(2));
    }
}
