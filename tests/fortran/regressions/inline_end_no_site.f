C     inline END tag without a site id: IndexError out of strict
      PROGRAM TAGEND
      REAL A(10)
C@INLINE BEGIN F 1 A
      X = 1.0
C@INLINE END
      END
