//! Request and response types.

use std::fmt;

/// HTTP method (the subset the simulated apps use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Get => f.write_str("GET"),
            Method::Post => f.write_str("POST"),
        }
    }
}

/// Response status (the subset the simulated apps produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    Ok,
    Redirect,
    BadRequest,
    Forbidden,
    NotFound,
    ServerError,
}

impl Status {
    /// Numeric status code.
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Redirect => 302,
            Status::BadRequest => 400,
            Status::Forbidden => 403,
            Status::NotFound => 404,
            Status::ServerError => 500,
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// A simulated HTTP request: path plus ordered parameters (query string for
/// GET, form body for POST — the distinction only matters to the WAF's
/// target selection).
#[derive(Debug, Clone, PartialEq)]
pub struct HttpRequest {
    pub method: Method,
    pub path: String,
    /// Ordered `(name, value)` parameters, already percent-decoded (the
    /// web server decodes before the application sees them).
    pub params: Vec<(String, String)>,
    /// Session cookie, when the client holds one.
    pub session: Option<String>,
}

impl HttpRequest {
    /// Builds a GET request.
    #[must_use]
    pub fn get(path: impl Into<String>) -> Self {
        HttpRequest {
            method: Method::Get,
            path: path.into(),
            params: Vec::new(),
            session: None,
        }
    }

    /// Builds a POST request.
    #[must_use]
    pub fn post(path: impl Into<String>) -> Self {
        HttpRequest {
            method: Method::Post,
            path: path.into(),
            params: Vec::new(),
            session: None,
        }
    }

    /// Adds a parameter (builder style).
    #[must_use]
    pub fn param(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.push((name.into(), value.into()));
        self
    }

    /// Attaches a session token.
    #[must_use]
    pub fn with_session(mut self, token: impl Into<String>) -> Self {
        self.session = Some(token.into());
        self
    }

    /// First value of a named parameter.
    #[must_use]
    pub fn param_value(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a named parameter, or empty string (PHP's `$_REQUEST`
    /// with a missing key after `isset` shortcuts).
    #[must_use]
    pub fn param_or_empty(&self, name: &str) -> &str {
        self.param_value(name).unwrap_or("")
    }

    /// Replaces the value of a parameter (or appends it) — used by attack
    /// mutators.
    pub fn set_param(&mut self, name: &str, value: impl Into<String>) {
        let value = value.into();
        match self.params.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v = value,
            None => self.params.push((name.to_string(), value)),
        }
    }
}

impl fmt::Display for HttpRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.method, self.path)?;
        if !self.params.is_empty() {
            let encoded = crate::codec::form_encode(
                self.params.iter().map(|(k, v)| (k.as_str(), v.as_str())),
            );
            write!(f, "?{encoded}")?;
        }
        Ok(())
    }
}

/// A simulated HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    pub status: Status,
    /// Rendered body (HTML-ish text the demo inspects for attack effects).
    pub body: String,
    /// Session cookie set by the handler, if any.
    pub set_session: Option<String>,
}

impl HttpResponse {
    /// 200 with a body.
    #[must_use]
    pub fn ok(body: impl Into<String>) -> Self {
        HttpResponse {
            status: Status::Ok,
            body: body.into(),
            set_session: None,
        }
    }

    /// Error response with a status and message.
    #[must_use]
    pub fn error(status: Status, message: impl Into<String>) -> Self {
        HttpResponse {
            status,
            body: message.into(),
            set_session: None,
        }
    }

    /// True for 2xx/3xx.
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self.status, Status::Ok | Status::Redirect)
    }

    /// Attaches a session cookie.
    #[must_use]
    pub fn with_session(mut self, token: impl Into<String>) -> Self {
        self.set_session = Some(token.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let req = HttpRequest::post("/x")
            .param("a", "1")
            .param("a", "2")
            .param("b", "3");
        assert_eq!(req.param_value("a"), Some("1"));
        assert_eq!(req.param_value("missing"), None);
        assert_eq!(req.param_or_empty("missing"), "");
    }

    #[test]
    fn set_param_replaces_or_appends() {
        let mut req = HttpRequest::get("/x").param("a", "1");
        req.set_param("a", "9");
        req.set_param("new", "v");
        assert_eq!(req.param_value("a"), Some("9"));
        assert_eq!(req.param_value("new"), Some("v"));
    }

    #[test]
    fn display_encodes() {
        let req = HttpRequest::get("/search").param("q", "a b'c");
        assert_eq!(req.to_string(), "GET /search?q=a+b%27c");
    }

    #[test]
    fn response_helpers() {
        assert!(HttpResponse::ok("x").is_success());
        assert!(!HttpResponse::error(Status::Forbidden, "no").is_success());
        assert_eq!(Status::Forbidden.code(), 403);
        assert_eq!(Status::ServerError.to_string(), "500");
    }

    #[test]
    fn session_round_trip() {
        let req = HttpRequest::get("/").with_session("tok");
        assert_eq!(req.session.as_deref(), Some("tok"));
        let res = HttpResponse::ok("hi").with_session("tok2");
        assert_eq!(res.set_session.as_deref(), Some("tok2"));
    }
}
