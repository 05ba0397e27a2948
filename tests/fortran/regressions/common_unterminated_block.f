C     COMMON with an unterminated block name: ValueError, both parsers
      PROGRAM COMBLK
      REAL A(10)
      COMMON /A
      X = 1.0
      END
