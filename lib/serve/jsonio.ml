include Rca_obs.Jsonio
