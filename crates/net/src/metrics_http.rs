//! A tiny blocking Prometheus exposition endpoint.
//!
//! [`serve_metrics`] binds a listener and answers every `GET /metrics`
//! (and `GET /`) with the current [`SharedRuntimeMetrics`] rendering in
//! the Prometheus text format 0.0.4. One thread per scrape, one
//! request per connection, `Connection: close` — a scrape endpoint for a
//! cluster node, not a web server. `std`-only like the rest of the crate.
//!
//! The endpoint holds a *clone* of the registry handle, so it observes
//! every update the node (or engine) makes, live, without any
//! coordination beyond the registry's internal mutex.
//!
//! # Examples
//!
//! ```
//! use uba_net::serve_metrics;
//! use uba_trace::SharedRuntimeMetrics;
//!
//! let registry = SharedRuntimeMetrics::new();
//! registry.inc("demo_total");
//! let server = serve_metrics("127.0.0.1:0", registry)?;
//! let text = uba_net::scrape_metrics(server.addr())?;
//! assert!(text.contains("demo_total 1"));
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use uba_sim::NodeId;
use uba_trace::SharedRuntimeMetrics;

use crate::conn::Server;

/// How long one scrape connection may take to send its request line and
/// headers before the server gives up on it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Binds `addr` and serves the registry's Prometheus rendering on it, each
/// scrape on a thread of its own. Dropping the server without
/// [`shutdown`](Server::shutdown) leaves it serving until the process
/// exits (harmless for a long-lived node, deliberate for short-lived tests
/// that outlive their cluster).
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_metrics(
    addr: impl ToSocketAddrs,
    registry: SharedRuntimeMetrics,
) -> io::Result<Server> {
    Server::start(TcpListener::bind(addr)?, move |stream| {
        let _ = serve_one(stream, &registry);
    })
}

/// Answers a single HTTP exchange on `stream`.
fn serve_one(mut stream: &TcpStream, registry: &SharedRuntimeMetrics) -> io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let request = read_request_head(stream)?;
    let path = request_path(&request);
    let (status, body) = match path {
        Some("/") | Some("/metrics") => ("200 OK", registry.render_prometheus()),
        Some(_) => ("404 Not Found", "only /metrics lives here\n".to_string()),
        None => ("400 Bad Request", "malformed request\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.shutdown(Shutdown::Both)
}

/// Reads until the end of the request headers (`\r\n\r\n`) or a size cap.
fn read_request_head(mut stream: &TcpStream) -> io::Result<String> {
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 256];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 8 * 1024 {
            break; // oversized header block: parse what we have
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(err) => return Err(err),
        }
    }
    Ok(String::from_utf8_lossy(&head).into_owned())
}

/// Extracts the path of a `GET <path> HTTP/1.x` request line.
fn request_path(request: &str) -> Option<&str> {
    let line = request.lines().next()?;
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let target = parts.next()?;
    // Strip any query string: scrape tools may append one.
    Some(target.split('?').next().unwrap_or(target))
}

/// Scrapes `addr` once over plain HTTP and returns the exposition body.
///
/// The client half of [`serve_metrics`], shared by the cluster binary's
/// scrape helper, the CI smoke job, and the end-to-end tests.
///
/// # Errors
///
/// Connection or read failures, plus [`io::ErrorKind::InvalidData`] when
/// the response is not a 200 with a body.
pub fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let request = format!(
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nAccept: text/plain\r\nConnection: close\r\n\r\n"
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "response without header block")
    })?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("scrape failed: {status}"),
        ));
    }
    Ok(body.to_string())
}

/// Reads the value of one series (exact full name, labels included) out of
/// an exposition body. Helper for scrape consumers; returns the **last**
/// occurrence, which in well-formed output is the only one.
pub fn series_value(body: &str, name: &str) -> Option<u64> {
    let mut found = None;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(value) = rest.strip_prefix(' ') {
                if let Ok(parsed) = value.trim().parse() {
                    found = Some(parsed);
                }
            }
        }
    }
    found
}

/// Sums every series of a family (lines starting with `name{` or exactly
/// `name `) in an exposition body — e.g. total frames sent across peers.
pub fn family_sum(body: &str, name: &str) -> u64 {
    let mut sum = 0u64;
    for line in body.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let family = series.split('{').next().unwrap_or(series);
        if family == name {
            if let Ok(parsed) = value.trim().parse::<u64>() {
                sum += parsed;
            }
        }
    }
    sum
}

/// The endpoints `HOST:PORT`, `HOST:PORT+1`, … of `count` consecutive
/// ports from `addr` = `HOST:PORT` — the `--metrics-addr` layout of the
/// `cluster` and `logd` binaries and of `cluster scrape`.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for a malformed `addr`, and for a range
/// that would run past port 65535: it is rejected as a whole rather than
/// wrapped onto unrelated (possibly privileged) ports.
pub fn consecutive_endpoints(addr: &str, count: u64) -> io::Result<Vec<String>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    let (host, port) = addr
        .rsplit_once(':')
        .ok_or_else(|| invalid(format!("invalid address {addr:?} (expected HOST:PORT)")))?;
    let port: u16 = port
        .parse()
        .map_err(|e| invalid(format!("invalid port in {addr:?}: {e}")))?;
    (0..count)
        .map(|i| member_port(port, i).map(|member| format!("{host}:{member}")))
        .collect::<Option<_>>()
        .ok_or_else(|| {
            invalid(format!(
                "port {port} + {count} endpoints exceeds port 65535"
            ))
        })
}

/// `base + index` as a port, or `None` when it does not fit in a `u16`.
fn member_port(base: u16, index: u64) -> Option<u16> {
    u16::try_from(index)
        .ok()
        .and_then(|offset| base.checked_add(offset))
}

/// The live metrics endpoints of a localhost cluster, one registry each
/// (see [`serve_cluster_metrics`]).
#[derive(Debug)]
pub struct ClusterMetrics {
    /// Each member's registry, keyed by id.
    pub members: BTreeMap<NodeId, SharedRuntimeMetrics>,
    /// The WAN links' `net_link_*` registry, if one was asked for.
    pub links: Option<SharedRuntimeMetrics>,
    servers: Vec<Server>,
}

impl ClusterMetrics {
    /// Stops every endpoint.
    pub fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// Serves a fresh registry per member of `ids` on the
/// [`consecutive_endpoints`] of `addr`: the member with the i-th smallest
/// id on `PORT + i` and, with `links`, the WAN links' registry on the
/// port after the last member's. The whole range is validated before
/// anything binds, and every bound endpoint is announced on stdout as
/// `metrics: node <id> on http://<addr>/metrics` (`metrics: links on …`).
///
/// # Errors
///
/// As [`consecutive_endpoints`], then the first failed bind.
pub fn serve_cluster_metrics(
    addr: &str,
    ids: &[NodeId],
    links: bool,
) -> io::Result<ClusterMetrics> {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    let endpoints = consecutive_endpoints(addr, sorted.len() as u64 + u64::from(links))?;
    let mut metrics = ClusterMetrics {
        members: BTreeMap::new(),
        links: None,
        servers: Vec::new(),
    };
    // `None` is the link registry, after every member.
    let owners = sorted.into_iter().map(Some).chain(links.then_some(None));
    for (owner, endpoint) in owners.zip(endpoints) {
        let registry = SharedRuntimeMetrics::new();
        let server = serve_metrics(endpoint.as_str(), registry.clone()).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("binding metrics endpoint {endpoint}: {e}"),
            )
        })?;
        let url = format!("http://{}/metrics", server.addr());
        match owner {
            Some(id) => {
                println!("metrics: node {id} on {url}");
                metrics.members.insert(id, registry);
            }
            None => {
                println!("metrics: links on {url}");
                metrics.links = Some(registry);
            }
        }
        metrics.servers.push(server);
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_ports_are_consecutive_and_overflow_checked() {
        assert_eq!(member_port(9100, 0), Some(9100));
        assert_eq!(member_port(9100, 3), Some(9103));
        assert_eq!(member_port(u16::MAX, 0), Some(u16::MAX));
        assert_eq!(member_port(u16::MAX, 1), None, "would wrap past 65535");
        assert_eq!(member_port(65530, 6), None);
        assert_eq!(member_port(1, u64::from(u16::MAX)), None);
        assert_eq!(member_port(0, 1 << 32), None, "index alone overflows");
    }

    #[test]
    fn endpoints_are_consecutive_from_the_base() {
        let endpoints = consecutive_endpoints("127.0.0.1:9100", 3).unwrap();
        assert_eq!(
            endpoints,
            ["127.0.0.1:9100", "127.0.0.1:9101", "127.0.0.1:9102"]
        );
        for bad in ["127.0.0.1", "127.0.0.1:http", "127.0.0.1:70000"] {
            let err = consecutive_endpoints(bad, 1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad}");
        }
    }

    /// 192.0.2.1 (TEST-NET-1) is never a local address, so binding it
    /// fails: an error other than the range check would mean a bind was
    /// attempted before the range was validated.
    #[test]
    fn an_overflowing_layout_is_rejected_before_anything_binds() {
        let ids = [NodeId::new(9), NodeId::new(3)];
        let too_far = [
            serve_cluster_metrics("192.0.2.1:65535", &ids, false),
            // The members fit exactly; the link endpoint after them does not.
            serve_cluster_metrics("192.0.2.1:65534", &ids, true),
        ];
        for result in too_far {
            let err = result.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("exceeds port 65535"), "{err}");
        }
        let err = serve_cluster_metrics("192.0.2.1:65534", &ids, false).unwrap_err();
        assert!(
            err.to_string().starts_with("binding metrics endpoint"),
            "{err}"
        );
    }

    #[test]
    fn serves_the_registry_and_404s_elsewhere() {
        let registry = SharedRuntimeMetrics::new();
        registry.inc("hits_total");
        registry.observe_micros("t_micros", 42);
        let server = serve_metrics("127.0.0.1:0", registry.clone()).expect("bind");
        let addr = server.addr();

        let body = scrape_metrics(addr).expect("scrape");
        assert!(body.contains("hits_total 1"));
        assert!(body.contains("t_micros_bucket{le=\"+Inf\"} 1"));

        // A second scrape sees live updates.
        registry.inc("hits_total");
        let body = scrape_metrics(addr).expect("second scrape");
        assert_eq!(series_value(&body, "hits_total"), Some(2));

        // Non-metrics paths 404 but the connection still answers cleanly.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"));

        server.shutdown();
    }

    #[test]
    fn a_silent_connection_holds_up_no_scrape() {
        let server = serve_metrics("127.0.0.1:0", SharedRuntimeMetrics::new()).expect("bind");
        // Sends nothing: its handler waits out `REQUEST_TIMEOUT` alone.
        let _silent = TcpStream::connect(server.addr()).unwrap();
        let started = std::time::Instant::now();
        scrape_metrics(server.addr()).expect("scrape");
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "scraped after {took:?}");
        // The silent connection is still being served: shutdown ends it.
        server.shutdown();
    }

    #[test]
    fn family_sum_adds_labelled_series() {
        let body = "# TYPE f counter\nf{peer=\"1\"} 2\nf{peer=\"2\"} 3\ng 9\n";
        assert_eq!(family_sum(body, "f"), 5);
        assert_eq!(family_sum(body, "g"), 9);
        assert_eq!(family_sum(body, "missing"), 0);
        assert_eq!(series_value(body, "f{peer=\"2\"}"), Some(3));
    }
}
